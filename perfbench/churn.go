package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"padres/internal/client"
	"padres/internal/cluster"
	"padres/internal/core"
	"padres/internal/message"
	"padres/internal/predicate"
	"padres/internal/replication"
	"padres/internal/telemetry"
	"padres/internal/transport"
	"padres/internal/workload"
)

// mobility-churn: movers shuttle along the paper's Fig. 8 corridors
// (b1<->b13, b2<->b14) with production hardening on — reliable links,
// R=3/W=2 quorum replication with the pipelined commit, durable stores —
// while six corridor publishers publish open loop over a stationary
// background population. Every move rewrites routing tables along its
// path, so matching sees writes beside reads.

type churnSize struct {
	movers     int
	background int // stationary subscriptions, split over the two classes
	bgClients  int
	pubRate    float64
	pause      time.Duration
	setups     int
	warmPubs   int
}

func churnSizes(tiny bool) churnSize {
	if tiny {
		return churnSize{movers: 4, background: 100, bgClients: 10, pubRate: 100,
			pause: 50 * time.Millisecond, setups: 2, warmPubs: 20}
	}
	return churnSize{movers: 2, background: 2000, bgClients: 100, pubRate: 250,
		pause: 150 * time.Millisecond, setups: 5, warmPubs: 200}
}

// churnCorridor is one Fig. 8 lane: movers oscillate home<->away, and the
// lane's class is published from three brokers off the movement path.
type churnCorridor struct {
	home, away message.BrokerID
	pubs       []message.BrokerID
	class      string
	kind       workload.Kind
}

var churnCorridors = []churnCorridor{
	{home: "b1", away: "b13", pubs: []message.BrokerID{"b7", "b11", "b2"}, class: "w1", kind: workload.Covered},
	{home: "b2", away: "b14", pubs: []message.BrokerID{"b6", "b10", "b1"}, class: "w2", kind: workload.Tree},
}

// attachTimeout bounds the wait for a committed mover to start at its
// target; a move still unattached by then counts as unresolved.
const attachTimeout = 10 * time.Second

// subscribeBatch is how many background subscriptions set-up issues before
// waiting for the deployment to go quiet.
const subscribeBatch = 100

type churnRig struct {
	cl      *cluster.Cluster
	pubs    []publisher
	clients []*client.Client // background subscribers, then movers
	movers  []*mover
	dataDir string
}

func setupChurn(seed int64, sz churnSize, dataDir string) (*churnRig, error) {
	cl, err := cluster.New(cluster.Options{
		Profile:       &transport.ClusterProfile{Latency: 0},
		ReliableLinks: true,
		Replication:   &replication.Config{Enabled: true},
		DataDir:       dataDir,
	})
	if err != nil {
		return nil, err
	}
	cl.Start()
	rig := &churnRig{cl: cl, dataDir: dataDir}
	ok := false
	defer func() {
		if !ok {
			rig.stop()
		}
	}()

	perClass := sz.background / len(churnCorridors)
	blocks := workload.Blocks(perClass)
	var at []message.BrokerID
	var classes []string
	for _, cor := range churnCorridors {
		for _, b := range cor.pubs {
			at = append(at, b)
			classes = append(classes, cor.class)
		}
	}
	if rig.pubs, err = advertise(cl, at, classes, blocks); err != nil {
		return nil, err
	}
	if err := cl.SettleFor(30 * time.Second); err != nil {
		return nil, fmt.Errorf("settle advertisements: %w", err)
	}

	r := rand.New(rand.NewSource(seed))
	brokers := cl.Brokers()
	for i := 0; i < sz.bgClients; i++ {
		c, err := cl.NewClient(message.ClientID(fmt.Sprintf("bg-%03d", i)), brokers[i%len(brokers)])
		if err != nil {
			return nil, err
		}
		rig.clients = append(rig.clients, c)
	}
	filters := make([][]*predicate.Filter, len(churnCorridors))
	for ci, cor := range churnCorridors {
		filters[ci] = workload.Assign(workload.Random, cor.class, perClass, r)
	}
	for j := 0; j < sz.background; j++ {
		f := filters[j%len(churnCorridors)][j/len(churnCorridors)]
		if _, err := rig.clients[j%sz.bgClients].Subscribe(f); err != nil {
			return nil, fmt.Errorf("subscribe: %w", err)
		}
		// Pace the population in batches: an unpaced burst of thousands of
		// subscriptions overflows the reliable links' resend queues and
		// trips their circuit breakers (see README.md, "Findings").
		if (j+1)%subscribeBatch == 0 {
			if err := cl.SettleFor(60 * time.Second); err != nil {
				return nil, fmt.Errorf("settle subscriptions: %w", err)
			}
		}
	}
	// Movers hold one subscription each from their lane's Fig. 8 workload
	// (covered on lane 1, tree on lane 2), in a seeded block of the span
	// the publishers cover.
	for i := 0; i < sz.movers; i++ {
		cor := churnCorridors[i%len(churnCorridors)]
		f := workload.Subscriptions(cor.kind, cor.class, r.Intn(blocks))[(i/len(churnCorridors))%workload.Size]
		c, err := cl.NewClient(message.ClientID(fmt.Sprintf("mv-%02d", i)), cor.home)
		if err != nil {
			return nil, err
		}
		if _, err := c.Subscribe(f); err != nil {
			return nil, fmt.Errorf("subscribe mover: %w", err)
		}
		rig.clients = append(rig.clients, c)
		rig.movers = append(rig.movers, &mover{c: c, home: cor.home, away: cor.away})
	}
	if err := cl.SettleFor(120 * time.Second); err != nil {
		return nil, fmt.Errorf("settle subscriptions: %w", err)
	}

	// Warm-up: publications build the matching indexes, and one round of
	// moves opens every store's write path and replication path.
	wr := rand.New(rand.NewSource(seed ^ 0x5eed))
	for k := 0; k < sz.warmPubs*len(rig.pubs); k++ {
		p := rig.pubs[k%len(rig.pubs)]
		if _, err := p.c.Publish(workload.RandomPublication(p.class, p.blocks, wr)); err != nil {
			return nil, fmt.Errorf("warm-up publish: %w", err)
		}
	}
	d := &moveLoop{cl: cl, movers: rig.movers}
	d.run(time.Now(), 0, true)
	if d.refused+d.aborted+d.unresolved > 0 {
		return nil, fmt.Errorf("warm-up moves: %d refused, %d aborted, %d unresolved", d.refused, d.aborted, d.unresolved)
	}
	if err := cl.SettleFor(60 * time.Second); err != nil {
		return nil, fmt.Errorf("settle warm-up: %w", err)
	}
	if dead := cl.Network().Telemetry().DeadLetters.Value(); dead > 0 {
		return nil, fmt.Errorf("set-up lost %d control messages to open circuit breakers", dead)
	}
	discardQueued(rig.clients)
	ok = true
	return rig, nil
}

func (rig *churnRig) stop() {
	rig.cl.Stop()
	if rig.dataDir != "" {
		os.RemoveAll(rig.dataDir)
	}
}

// mover is one shuttling client and its position in the closed loop.
type mover struct {
	c          *client.Client
	home, away message.BrokerID

	state  moverState
	target message.BrokerID
	done   <-chan error
	t0     time.Time // RequestMove issued
	tDone  time.Time // outcome channel fired
	nextAt time.Time // earliest next request (after the pause)
	window int       // the window the in-flight move is tagged with
}

type moverState int

const (
	moverIdle moverState = iota
	moverInFlight
	moverAttaching
)

// moveSample is one committed move's latency split.
type moveSample struct {
	window    int
	latencyMs float64 // RequestMove until started at the target
	attachMs  float64 // outcome channel until started at the target
}

// moveLoop runs every mover closed loop from one goroutine: request, wait
// for the outcome channel, wait until the client reports started at the
// target (under the pipelined commit the outcome can precede the attach),
// pause, repeat.
type moveLoop struct {
	cl     *cluster.Cluster
	movers []*mover
	// pause is the dwell at each end; jitter, when set, draws each pause
	// uniformly from [pause/2, 3*pause/2], so the closed loops cannot lock
	// into convoys whose phase differs from run to run.
	pause  time.Duration
	jitter *rand.Rand

	// slice, when set, splits the run into slices; onSlice is called as
	// each begins and returns the window its moves are tagged with.
	slice   time.Duration
	onSlice func(i int) int

	requested, refused, aborted, unresolved int64
	samples                                 []moveSample
}

// run drives the movers until the deadline (or, with once, until each has
// moved once), then lets every in-flight move finish. It blocks on the
// in-flight outcome channels, so an outcome is timed when it fires rather
// than at the next poll (a sleep here lasts a millisecond or more, as long
// as a fast move).
func (d *moveLoop) run(deadline time.Time, window int, once bool) {
	moved := make(map[*mover]bool)
	start, cur := time.Now(), -1
	for {
		now := time.Now()
		if d.slice > 0 {
			if i := int(now.Sub(start) / d.slice); i != cur && now.Before(deadline) {
				cur, window = i, d.onSlice(i)
			}
		}
		issuing := now.Before(deadline) || (once && len(moved) < len(d.movers))
		wake := now.Add(maxWait)
		var cases []reflect.SelectCase
		var waiting []*mover
		attaching := false
		for _, mv := range d.movers {
			switch mv.state {
			case moverIdle:
				if !issuing || (once && moved[mv]) {
					continue
				}
				if now.Before(mv.nextAt) {
					wake = minTime(wake, mv.nextAt)
					continue
				}
				d.request(mv, window)
				moved[mv] = true
			case moverAttaching:
				d.checkAttach(mv)
				attaching = attaching || mv.state == moverAttaching
			}
			if mv.state == moverInFlight {
				cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(mv.done)})
				waiting = append(waiting, mv)
			}
		}
		if !issuing && len(waiting) == 0 && !attaching {
			return
		}
		if issuing && d.slice > 0 {
			wake = minTime(wake, start.Add(time.Duration(cur+1)*d.slice))
		}
		if issuing {
			wake = minTime(wake, deadline)
		}
		// A committed move whose client has not started at the target yet
		// (the pipelined commit's window) is polled every attachPoll.
		if attaching {
			wake = minTime(wake, now.Add(attachPoll))
		}
		timer := time.NewTimer(time.Until(wake))
		cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(timer.C)})
		chosen, v, _ := reflect.Select(cases)
		timer.Stop()
		if chosen >= len(waiting) {
			continue
		}
		mv := waiting[chosen]
		mv.tDone = time.Now()
		if err, _ := v.Interface().(error); err != nil {
			d.aborted++
			mv.state, mv.nextAt = moverIdle, mv.tDone.Add(d.dwell())
			continue
		}
		mv.state = moverAttaching
		d.checkAttach(mv)
	}
}

// maxWait bounds one wait of the move loop; attachPoll is the wait between
// two checks of a committed mover that has not started at its target. A
// blocking wait, not a spin, so the loop leaves the CPU to the brokers whose
// latency it times.
const (
	maxWait    = 50 * time.Millisecond
	attachPoll = 100 * time.Microsecond
)

func minTime(a, b time.Time) time.Time {
	if b.Before(a) {
		return b
	}
	return a
}

// checkAttach completes a committed move once its client reports started
// at the target, or gives up after attachTimeout.
func (d *moveLoop) checkAttach(mv *mover) {
	now := time.Now()
	switch {
	case mv.c.Broker() == mv.target && mv.c.State() == client.StateStarted:
		d.samples = append(d.samples, moveSample{window: mv.window,
			latencyMs: ms(now.Sub(mv.t0)), attachMs: ms(now.Sub(mv.tDone))})
		mv.state, mv.nextAt = moverIdle, now.Add(d.dwell())
	case now.Sub(mv.tDone) > attachTimeout:
		d.unresolved++
		mv.state, mv.nextAt = moverIdle, now.Add(d.dwell())
	}
}

func (d *moveLoop) dwell() time.Duration {
	if d.pause <= 0 {
		return 0
	}
	return d.pause/2 + time.Duration(d.jitter.Int63n(int64(d.pause)))
}

func (d *moveLoop) request(mv *mover, window int) {
	d.requested++
	mv.window = window
	from := mv.c.Broker()
	mv.target = mv.away
	if from == mv.away {
		mv.target = mv.home
	}
	mv.t0 = time.Now()
	done, err := d.cl.Container(from).RequestMove(mv.c, mv.target)
	if err != nil {
		// A refusal is a failure of the run, never retried silently.
		d.refused++
		mv.nextAt = time.Now().Add(d.dwell())
		return
	}
	mv.done, mv.state = done, moverInFlight
}

func runChurn(cfg config) (*outcome, error) {
	sz := churnSizes(cfg.tiny)
	out := &outcome{m: make(metrics)}

	var rig *churnRig
	var setups []float64
	for k := 0; k < sz.setups; k++ {
		if rig != nil {
			rig.stop()
			rig = nil
			runtime.GC()
		}
		// Only the traced run keeps durable stores: fsync latency on a
		// shared disk swings move latency several-fold from run to run
		// (README.md, "Calibration"), which would drown the code's own cost
		// in the end-to-end figures.
		dataDir := ""
		if cfg.trace {
			dataDir = filepath.Join(cfg.scratch, fmt.Sprintf("data-%d", k))
		}
		t0 := time.Now()
		var err error
		if rig, err = setupChurn(cfg.seed, sz, dataDir); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, since(t0))
	}
	defer rig.stop()
	out.m.set("setup_s", median(setups), "s")

	epoch := time.Now()
	snk := startSink(epoch, rig.clients)
	gen := &generator{epoch: epoch, pubs: rig.pubs, r: rand.New(rand.NewSource(cfg.seed + 1)), trace: cfg.trace}
	d := &moveLoop{cl: rig.cl, movers: rig.movers, pause: sz.pause, jitter: rand.New(rand.NewSource(cfg.seed + 2))}
	budget := time.Duration(cfg.seconds * float64(time.Second))

	// A traced run alternates one-second slices with the phase tracing off
	// and on, so the tracing overhead is measured on the same deployment
	// under the same drift; the traced slices supply the per-layer numbers.
	const untracedWin, measuredWin = 0, 1
	var spans *telemetry.SpanRecorder
	if cfg.trace {
		spans = telemetry.NewSpanRecorder(0)
		traced := core.PhaseSink(spans)
		d.slice = time.Second
		d.onSlice = func(i int) int {
			if i%2 == 0 {
				rig.cl.SetEventSink(nil)
				return untracedWin
			}
			rig.cl.SetEventSink(traced)
			return measuredWin
		}
	}
	var queues *queueWatch
	if cfg.trace {
		queues = watchQueues(rig.cl)
	}
	before := snapCluster(rig.cl)
	gc := startGC()
	cpu0 := processCPU()
	start := time.Now()
	pubDone := make(chan struct{})
	go func() {
		defer close(pubDone)
		gen.run(sz.pubRate, budget, measuredWin)
	}()
	d.run(start.Add(budget), measuredWin, false)
	elapsed := time.Since(start)
	cpu := processCPU() - cpu0
	<-pubDone
	if err := drain(rig.cl, rig.clients, 60*time.Second); err != nil {
		return nil, err
	}
	gc.report(out.m)
	if queues != nil {
		out.m.set("broker.queue_high_water", float64(queues.end()), "count")
	}

	var lat, attach []float64
	for _, s := range d.samples {
		if s.window == measuredWin {
			lat = append(lat, s.latencyMs)
			attach = append(attach, s.attachMs)
		}
	}
	committed := int64(len(d.samples))
	snapCluster(rig.cl).layerMetrics(before, out.m, int64(len(gen.log)), committed)

	got := snk.stop()
	or := newOracle(subsOf(rig.clients))
	v := or.check(gen.log, got)
	moveFails := d.refused + d.aborted + d.unresolved
	dead := rig.cl.Network().Telemetry().DeadLetters.Value()
	out.attempted = int64(len(gen.log)) + gen.errs + v.expected + d.requested
	out.failed = gen.errs + v.failures() + moveFails + dead
	if dead > 0 {
		out.problem("%d control messages dead-lettered by open circuit breakers", dead)
	}
	if v.failures() > 0 {
		out.problem("notifications: %d missing, %d duplicate, %d extra of %d expected", v.missing, v.duplicates, v.extra, v.expected)
	}
	if moveFails > 0 {
		out.problem("moves: %d refused, %d aborted, %d unresolved of %d requested", d.refused, d.aborted, d.unresolved, d.requested)
	}
	if committed == 0 {
		return nil, fmt.Errorf("no move committed")
	}

	p50, p95 := quantile(lat, 0.50), quantile(lat, 0.95)

	out.m.set("move_p50_ms", p50, "ms")
	out.m.set("move_p95_ms", p95, "ms")
	out.m.set("move_mean_ms", meanOf(lat), "ms")
	out.m.set("moves_per_s", float64(committed)/elapsed.Seconds(), "1/s")
	out.m.set("client.attach_lag_ms", quantile(attach, 0.95), "ms")
	out.m.set("latency_p50_ms", p50, "ms")
	// Committed moves per second of the process's CPU time, the background
	// publications' share included. The movers' pauses fill most of the
	// wall time, so moves per wall second would be set by the pause; CPU
	// time is the code's, and most of it goes to the index rebuilds each
	// move imposes along its path.
	out.m.set("throughput_per_s", float64(committed)/cpu, "1/s")
	notif := v.latencies[measuredWin]
	out.m.set("notify_p50_ms", quantile(notif, 0.50), "ms")
	out.m.set("notify_p99_ms", quantile(notif, 0.99), "ms")
	late := quantile(gen.late, 0.99)
	out.m.set("bench.gen_late_p99_ms", late, "ms")
	if late > genLateBoundMs {
		out.problem("generator ran %.1f ms late (p99), bound %.0f ms: the run did not apply its load", late, genLateBoundMs)
	}

	if cfg.trace {
		var base []float64
		for _, s := range d.samples {
			if s.window == untracedWin {
				base = append(base, s.latencyMs)
			}
		}
		out.m.set("bench.trace_overhead_pct", (p50/quantile(base, 0.5)-1)*100, "%")
		out.m.set("client.publish_us", quantile(gen.publishUs, 0.50), "us")
		phaseMetrics(out.m, spans.Completed())
		timeMatching(out.m, subsOf(rig.clients), gen.log)
	}
	return out, nil
}

// phaseMetrics reports the committed moves' 3PC phase durations from the
// span recorder the PhaseSink fed.
func phaseMetrics(m metrics, tls []telemetry.MovementTimeline) {
	for _, phase := range []string{telemetry.PhaseInit, telemetry.PhasePrepare, telemetry.PhasePrecommit, telemetry.PhaseCommit} {
		var ds []float64
		for _, tl := range tls {
			if tl.Outcome != telemetry.StepCommitted {
				continue
			}
			if ps, ok := tl.Phase(phase); ok {
				ds = append(ds, ms(ps.Duration()))
			}
		}
		m.set("core.phase_"+phase+"_p50_ms", quantile(ds, 0.50), "ms")
		m.set("core.phase_"+phase+"_p95_ms", quantile(ds, 0.95), "ms")
	}
}
