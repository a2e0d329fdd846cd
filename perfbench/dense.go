package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"padres/internal/client"
	"padres/internal/cluster"
	"padres/internal/matching"
	"padres/internal/message"
	"padres/internal/predicate"
	"padres/internal/transport"
	"padres/internal/workload"
)

// pubsub-dense: stationary publish/subscribe on the paper's 14-broker
// overlay with a dense subscription population. Matching, broker dispatch,
// the in-process links and client delivery do the work; no client moves,
// so core, replication, store and journal stay idle.

type denseSize struct {
	subs     int // total subscriptions, split over two classes
	clients  int // subscriber clients, spread round-robin over all brokers
	warmPubs int // warm-up publications per publisher, untimed
	setups   int // set-ups per run; setup_s is their median
	refRate  float64
	bulkPubs int // publications in the bulk-throughput burst
	// The capacity ladder starts at ladderFrom pubs/s and multiplies by
	// ladderStep per rung; each rung runs for rungDur.
	ladderFrom, ladderStep float64
	rungDur                time.Duration
}

func denseSizes(tiny bool) denseSize {
	if tiny {
		return denseSize{subs: 400, clients: 14, warmPubs: 20, setups: 2, refRate: 200, bulkPubs: 200,
			ladderFrom: 200, ladderStep: 1.5, rungDur: 200 * time.Millisecond}
	}
	return denseSize{subs: 5000, clients: 35, warmPubs: 500, setups: 3, refRate: 400, bulkPubs: 30000,
		ladderFrom: 2000, ladderStep: 1.25, rungDur: 1500 * time.Millisecond}
}

// denseLimitMs is the p99 notification latency, timed from each
// publication's due time, that a ladder rate must meet; the rung's drain
// time and generator lateness must meet it too.
const denseLimitMs = 50.0

// bulkChunk is how many bulk publications are issued between two drains.
const bulkChunk = 3000

// genLateBoundMs is the generator lateness (p99) beyond which a run is
// invalid: the generator, not the schedule, would have set the load.
const genLateBoundMs = 100.0

// denseBrokers places the two publishers (Fig. 6 overlay).
var densePublishers = []message.BrokerID{"b7", "b11"}

type denseRig struct {
	cl      *cluster.Cluster
	pubs    []publisher
	clients []*client.Client
}

// setupDense builds the deployment, installs the population, and warms the
// lazily built matching indexes so the first timed publication pays no
// index construction.
func setupDense(seed int64, sz denseSize) (*denseRig, error) {
	cl, err := cluster.New(cluster.Options{Profile: &transport.ClusterProfile{Latency: 0}})
	if err != nil {
		return nil, err
	}
	cl.Start()
	rig := &denseRig{cl: cl}
	ok := false
	defer func() {
		if !ok {
			cl.Stop()
		}
	}()

	perClass := sz.subs / len(densePublishers)
	blocks := workload.Blocks(perClass)
	classes := []string{"c1", "c2"}
	if rig.pubs, err = advertise(cl, densePublishers, classes, blocks); err != nil {
		return nil, err
	}
	if err := cl.SettleFor(30 * time.Second); err != nil {
		return nil, fmt.Errorf("settle advertisements: %w", err)
	}

	brokers := cl.Brokers()
	for i := 0; i < sz.clients; i++ {
		c, err := cl.NewClient(message.ClientID(fmt.Sprintf("sub-%03d", i)), brokers[i%len(brokers)])
		if err != nil {
			return nil, err
		}
		rig.clients = append(rig.clients, c)
	}
	r := rand.New(rand.NewSource(seed))
	filters := make([][]*predicate.Filter, len(classes))
	for ci, class := range classes {
		filters[ci] = workload.Assign(workload.Random, class, perClass, r)
	}
	for j := 0; j < sz.subs; j++ {
		f := filters[j%len(classes)][j/len(classes)]
		if _, err := rig.clients[j%sz.clients].Subscribe(f); err != nil {
			return nil, fmt.Errorf("subscribe: %w", err)
		}
	}
	if err := cl.SettleFor(120 * time.Second); err != nil {
		return nil, fmt.Errorf("settle subscriptions: %w", err)
	}

	// Warm-up: the first match after the population lands builds every
	// broker's index; pay it here, then discard the notifications.
	wr := rand.New(rand.NewSource(seed ^ 0x5eed))
	for k := 0; k < sz.warmPubs*len(rig.pubs); k++ {
		p := rig.pubs[k%len(rig.pubs)]
		if _, err := p.c.Publish(workload.RandomPublication(p.class, p.blocks, wr)); err != nil {
			return nil, fmt.Errorf("warm-up publish: %w", err)
		}
	}
	if err := cl.SettleFor(60 * time.Second); err != nil {
		return nil, fmt.Errorf("settle warm-up: %w", err)
	}
	discardQueued(rig.clients)
	ok = true
	return rig, nil
}

func runDense(cfg config) (*outcome, error) {
	sz := denseSizes(cfg.tiny)
	out := &outcome{m: make(metrics)}

	var rig *denseRig
	var setups []float64
	for k := 0; k < sz.setups; k++ {
		if rig != nil {
			rig.cl.Stop()
			rig = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if rig, err = setupDense(cfg.seed, sz); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, since(t0))
	}
	defer rig.cl.Stop()
	out.m.set("setup_s", median(setups), "s")

	epoch := time.Now()
	snk := startSink(epoch, rig.clients)
	gen := &generator{epoch: epoch, pubs: rig.pubs, r: rand.New(rand.NewSource(cfg.seed + 1))}
	gc := startGC()
	budget := time.Duration(cfg.seconds * float64(time.Second))
	end := time.Now().Add(budget)
	refDur := budget * 45 / 100
	drainT := 60 * time.Second

	// Reference rate: the notification latency a user sees at a load the
	// deployment sustains. A traced run first repeats it untraced so the
	// tracing overhead is measured on the same deployment.
	const untracedRef, refPhase, bulkPhase = 0, 1, 2
	if cfg.trace {
		refDur /= 2
		gen.run(sz.refRate, refDur, untracedRef)
		if err := drain(rig.cl, rig.clients, drainT); err != nil {
			return nil, err
		}
		gen.trace = true
	}
	var queues *queueWatch
	if cfg.trace {
		queues = watchQueues(rig.cl)
	}
	before := snapCluster(rig.cl)
	lateFrom := len(gen.late)
	gen.run(sz.refRate, refDur, refPhase)
	if err := drain(rig.cl, rig.clients, drainT); err != nil {
		return nil, err
	}
	if queues != nil {
		out.m.set("broker.queue_high_water", float64(queues.end()), "count")
	}
	snapCluster(rig.cl).layerMetrics(before, out.m, int64(countPhase(gen.log, refPhase)), 0)
	lateRef := quantile(append([]float64(nil), gen.late[lateFrom:]...), 0.99)
	out.m.set("bench.gen_late_p99_ms", lateRef, "ms")
	if lateRef > genLateBoundMs {
		out.problem("generator ran %.1f ms late (p99) at the reference rate, bound %.0f ms", lateRef, genLateBoundMs)
	}

	// Bulk throughput: publications issued back to back are drained at the
	// deployment's full processing rate, both cores busy. They go out in
	// chunks, each drained before the next, so the backlog — and with it
	// the process's peak memory — stays bounded. The figure is their number
	// per second of the process's CPU time over the chunks and their
	// drains. Per wall second the same bursts spread more from run to run
	// (README.md, "pubsub-dense"): wall time also counts the moments the
	// fourteen broker loops leave a core idle, which vary with the host and
	// the scheduler.
	bulkFrom := len(gen.log)
	cpu0 := processCPU()
	for n := 0; n < sz.bulkPubs; n += bulkChunk {
		gen.burst(min(bulkChunk, sz.bulkPubs-n), bulkPhase)
		if err := drain(rig.cl, rig.clients, drainT); err != nil {
			return nil, err
		}
	}
	out.m.set("throughput_per_s", float64(len(gen.log)-bulkFrom)/(processCPU()-cpu0), "1/s")

	// Rate ladder: each rung runs open loop, drains, and is judged on its
	// own p99 and drain time. The ladder climbs until a rung fails, then
	// bisects the bracket with the remaining budget; pubs_per_s interpolates
	// between the highest passing and the lowest failing rung, so the rung
	// spacing does not quantize the result.
	rungs := 0
	probe := func(rate float64) rung {
		rungs++
		from, lateFrom, recFrom := len(gen.log), len(gen.late), snk.len()
		gen.run(rate, sz.rungDur, 10+rungs)
		if err := drain(rig.cl, rig.clients, drainT); err != nil {
			return rung{rate: rate, err: err}
		}
		rg := judgeRung(rate, gen.log[from:], snk.since(recFrom), gen.late[lateFrom:])
		fmt.Fprintf(os.Stderr, "rung %6.0f/s: p99 %7.2f ms drain %7.2f ms late %6.2f ms pass=%t\n",
			rate, rg.p99, rg.drainMs, rg.lateMs, rg.pass)
		return rg
	}
	var pass, fail *rung
	for rate := sz.ladderFrom; fail == nil && time.Now().Before(end); rate *= sz.ladderStep {
		rg := probe(rate)
		if rg.err != nil {
			return nil, rg.err
		}
		if rg.pass {
			pass = &rg
		} else {
			fail = &rg
		}
	}
	for pass != nil && fail != nil && fail.rate-pass.rate > 0.02*pass.rate && time.Now().Add(sz.rungDur).Before(end) {
		rg := probe((pass.rate + fail.rate) / 2)
		if rg.err != nil {
			return nil, rg.err
		}
		if rg.pass {
			pass = &rg
		} else {
			fail = &rg
		}
	}
	out.m.set("pubs_per_s", capacity(pass, fail), "1/s")
	gc.report(out.m)

	got := snk.stop()
	or := newOracle(subsOf(rig.clients))
	v := or.check(gen.log, got)
	out.attempted = int64(len(gen.log)) + gen.errs + v.expected
	out.failed = gen.errs + v.failures()
	if v.failures() > 0 {
		out.problem("notifications: %d missing, %d duplicate, %d extra of %d expected", v.missing, v.duplicates, v.extra, v.expected)
	}
	ref := v.latencies[refPhase]
	p50, p99 := quantile(ref, 0.50), quantile(ref, 0.99)

	out.m.set("notify_p50_ms", p50, "ms")
	out.m.set("notify_p99_ms", p99, "ms")
	out.m.set("latency_p50_ms", p50, "ms")
	if cfg.trace {
		base := quantile(v.latencies[untracedRef], 0.50)
		out.m.set("bench.trace_overhead_pct", (p50/base-1)*100, "%")
		out.m.set("client.publish_us", quantile(gen.publishUs, 0.50), "us")
		timeMatching(out.m, subsOf(rig.clients), gen.log)
	}
	return out, nil
}

func countPhase(log []sentPub, phase int) int {
	n := 0
	for _, p := range log {
		if p.phase == phase {
			n++
		}
	}
	return n
}

// rung is one ladder step's verdict.
type rung struct {
	rate    float64
	p99     float64 // ms, from due time
	drainMs float64 // last delivery after the last due time
	lateMs  float64 // generator lateness p99
	pass    bool
	err     error
}

// worst is the rung's figure judged against the limit.
func (rg *rung) worst() float64 { return math.Max(rg.p99, math.Max(rg.drainMs, rg.lateMs)) }

func judgeRung(rate float64, pubs []sentPub, got []delivery, late []float64) rung {
	due := make(map[message.PubID]float64, len(pubs))
	lastDue := 0.0
	for _, p := range pubs {
		due[p.id] = p.due
		lastDue = math.Max(lastDue, p.due)
	}
	var lat []float64
	lastAt := lastDue
	for _, d := range got {
		if t, ok := due[d.id]; ok {
			lat = append(lat, (d.at-t)*1000)
			lastAt = math.Max(lastAt, d.at)
		}
	}
	rg := rung{rate: rate, p99: quantile(lat, 0.99), drainMs: (lastAt - lastDue) * 1000,
		lateMs: quantile(append([]float64(nil), late...), 0.99)}
	rg.pass = len(lat) > 0 && rg.worst() <= denseLimitMs
	return rg
}

// capacity is the highest rate meeting the limit, interpolated in log p99
// between the highest passing rung and the lowest failing one.
func capacity(pass, fail *rung) float64 {
	switch {
	case pass == nil && fail == nil:
		return 0
	case fail == nil:
		return pass.rate
	case pass == nil:
		return fail.rate * denseLimitMs / math.Max(fail.worst(), denseLimitMs)
	}
	lo := math.Log(math.Max(pass.worst(), 1e-3))
	hi := math.Log(math.Max(fail.worst(), denseLimitMs*1.0001))
	frac := math.Max(0, math.Min(1, (math.Log(denseLimitMs)-lo)/(hi-lo)))
	return pass.rate + frac*(fail.rate-pass.rate)
}

// timeMatching measures the matching layer outside the deployment: a
// standalone PRT loaded with the run's whole subscription population, fed
// the run's publications, and the cost of one routing-table mutation
// followed by a match — the index rebuild a moving client imposes.
func timeMatching(m metrics, subs []map[message.SubID]*predicate.Filter, log []sentPub) {
	prt := matching.NewPRT()
	var fs []*predicate.Filter
	for ci, mm := range subs {
		for id, f := range mm {
			prt.Insert(id, message.ClientID(fmt.Sprintf("c%d", ci)), f, message.NodeID("c"))
			fs = append(fs, f)
		}
	}
	if len(log) == 0 || len(fs) == 0 {
		return
	}
	var buf []*matching.Record
	buf = prt.MatchInto(log[0].ev, buf[:0]) // builds the index
	// Each loop stops after its time budget: a large population makes one
	// rebuild cost a tenth of a second.
	const loopBudget = 1500 * time.Millisecond
	var per []float64
	deadline := time.Now().Add(loopBudget)
	for i := 0; i < len(log) && time.Now().Before(deadline); i++ {
		t0 := time.Now()
		buf = prt.MatchInto(log[i].ev, buf[:0])
		per = append(per, us(time.Since(t0)))
	}
	m.set("matching.match_us", quantile(per, 0.5), "us")

	per = per[:0]
	deadline = time.Now().Add(loopBudget)
	for i := 0; i < 400 && time.Now().Before(deadline); i++ {
		id := message.SubID(fmt.Sprintf("mut-%d", i))
		ev := log[i%len(log)].ev
		t0 := time.Now()
		prt.Insert(id, "mover", fs[i%len(fs)], message.NodeID("c"))
		buf = prt.MatchInto(ev, buf[:0])
		t1 := time.Now()
		prt.Remove(id)
		buf = prt.MatchInto(ev, buf[:0])
		per = append(per, us(t1.Sub(t0)), us(time.Since(t1)))
	}
	m.set("matching.mutate_match_us", quantile(per, 0.5), "us")
}
