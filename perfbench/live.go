package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"padres/internal/client"
	"padres/internal/cluster"
	"padres/internal/message"
	"padres/internal/predicate"
	"padres/internal/telemetry"
	"padres/internal/workload"
)

// This file holds the machinery the two wall-clock workloads share: the
// notification sink, the open-loop publication generator, drain waits, and
// the per-layer counters read from the deployment's exported instruments.

// sink collects every notification the clients dequeue. One goroutine per
// client blocks in Receive; the benchmark never counts deliveries through
// the client's delivery observer, which the container replaces on moves.
type sink struct {
	epoch  time.Time
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu  sync.Mutex
	got []delivery
}

func startSink(epoch time.Time, clients []*client.Client) *sink {
	ctx, cancel := context.WithCancel(context.Background())
	s := &sink{epoch: epoch, cancel: cancel}
	for i, c := range clients {
		s.wg.Add(1)
		go func(i int, c *client.Client) {
			defer s.wg.Done()
			for {
				pub, err := c.Receive(ctx)
				if err != nil {
					return
				}
				at := time.Since(s.epoch).Seconds()
				s.mu.Lock()
				s.got = append(s.got, delivery{client: i, id: pub.ID, at: at})
				s.mu.Unlock()
			}
		}(i, c)
	}
	return s
}

// since returns a copy of the deliveries recorded from index from on.
func (s *sink) since(from int) []delivery {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]delivery(nil), s.got[from:]...)
}

func (s *sink) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.got)
}

// stop ends the receivers once they have drained their queues and returns
// everything they recorded.
func (s *sink) stop() []delivery {
	s.cancel()
	s.wg.Wait()
	return s.got
}

// drain waits until the deployment has no message in flight and every
// client's queue is empty, so a phase's notifications are all recorded
// before the next phase starts.
func drain(cl *cluster.Cluster, clients []*client.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if err := cl.SettleFor(time.Until(deadline)); err != nil {
			return fmt.Errorf("settle: %w", err)
		}
		empty := true
		for _, c := range clients {
			if c.QueueLen() > 0 {
				empty = false
				break
			}
		}
		if empty && cl.Registry().Inflight() == 0 {
			// Receive may have popped the last item without recording it
			// yet; a scheduler tick lets it finish.
			time.Sleep(2 * time.Millisecond)
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("client queues did not drain")
		}
		time.Sleep(time.Millisecond)
	}
}

// publisher is one advertising client and the class it publishes.
type publisher struct {
	c      *client.Client
	class  string
	blocks int
}

// generator issues publications open loop: publication k of a phase is due
// at start + k/rate whatever the system's state, and its latency is timed
// from that due time, so a stall delays every later publication's figure.
type generator struct {
	epoch time.Time
	pubs  []publisher
	r     *rand.Rand
	trace bool

	log       []sentPub
	late      []float64 // ms each publication was issued after its due time
	publishUs []float64 // Publish call durations (traced runs only)
	errs      int64
}

// run publishes at rate (per second, across all publishers in turn) for
// dur.
func (g *generator) run(rate float64, dur time.Duration, phase int) {
	start := time.Now()
	n := int(rate * dur.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(k) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		p := g.pubs[k%len(g.pubs)]
		ev := workload.RandomPublication(p.class, p.blocks, g.r)
		g.late = append(g.late, ms(time.Since(due)))
		var t0 time.Time
		if g.trace {
			t0 = time.Now()
		}
		id, err := p.c.Publish(ev)
		if g.trace {
			g.publishUs = append(g.publishUs, us(time.Since(t0)))
		}
		if err != nil {
			g.errs++
			continue
		}
		g.log = append(g.log, sentPub{id: id, ev: ev, due: due.Sub(g.epoch).Seconds(), phase: phase})
	}
}

// burst publishes n publications back to back, each due when issued.
func (g *generator) burst(n, phase int) {
	for k := 0; k < n; k++ {
		p := g.pubs[k%len(g.pubs)]
		ev := workload.RandomPublication(p.class, p.blocks, g.r)
		due := time.Now()
		id, err := p.c.Publish(ev)
		if err != nil {
			g.errs++
			continue
		}
		g.log = append(g.log, sentPub{id: id, ev: ev, due: due.Sub(g.epoch).Seconds(), phase: phase})
	}
}

// advertise creates one publisher per (broker, class) pair.
func advertise(cl *cluster.Cluster, at []message.BrokerID, classes []string, blocks int) ([]publisher, error) {
	out := make([]publisher, 0, len(at))
	for i, b := range at {
		c, err := cl.NewClient(message.ClientID(fmt.Sprintf("pub-%d", i)), b)
		if err != nil {
			return nil, fmt.Errorf("publisher at %s: %w", b, err)
		}
		if _, err := c.Advertise(workload.Advertisement(classes[i])); err != nil {
			return nil, fmt.Errorf("advertise at %s: %w", b, err)
		}
		out = append(out, publisher{c: c, class: classes[i], blocks: blocks})
	}
	return out, nil
}

// subsOf snapshots every client's installed subscriptions for the oracle.
func subsOf(clients []*client.Client) []map[message.SubID]*predicate.Filter {
	out := make([]map[message.SubID]*predicate.Filter, len(clients))
	for i, c := range clients {
		out[i] = c.Subs()
	}
	return out
}

// discardQueued empties every client queue (warm-up notifications).
func discardQueued(clients []*client.Client) {
	for _, c := range clients {
		for {
			if _, ok := c.TryReceive(); !ok {
				break
			}
		}
	}
}

// clusterSnap is a point-in-time copy of the instruments the deployment
// exports: broker Stats, the store and replication metrics, the transport
// counters and the message registry.
type clusterSnap struct {
	processed  int64
	prtRecords int64
	inboxWait  telemetry.HistogramSnapshot
	match      telemetry.HistogramSnapshot
	dispatch   telemetry.HistogramSnapshot
	commit     telemetry.HistogramSnapshot
	fsync      telemetry.HistogramSnapshot
	quorum     telemetry.HistogramSnapshot
	fsyncs     int64
	walBytes   int64
	retrans    int64
	dupes      int64
	byKind     map[message.Kind]int64
}

func snapCluster(cl *cluster.Cluster) *clusterSnap {
	s := &clusterSnap{}
	var inbox, match, disp, commit, fsync, quorum []telemetry.HistogramSnapshot
	for _, id := range cl.Brokers() {
		b := cl.Broker(id)
		st := b.Stats()
		s.processed += st.Processed
		s.prtRecords += int64(st.PRTSize)
		inbox = append(inbox, st.Stages[telemetry.StageInboxWait])
		match = append(match, st.Stages[telemetry.StageMatch])
		disp = append(disp, st.DispatchLatency)
		if sm := b.StoreMetrics(); sm != nil {
			commit = append(commit, sm.CommitLatency.Snapshot())
			fsync = append(fsync, sm.FsyncLatency.Snapshot())
			s.fsyncs += sm.Fsyncs.Value()
			s.walBytes += sm.WALBytes.Value()
		}
		if rm := b.ReplicationMetrics(); rm != nil {
			quorum = append(quorum, rm.QuorumLatency.Snapshot())
		}
	}
	s.inboxWait, s.match, s.dispatch = mergeHists(inbox), mergeHists(match), mergeHists(disp)
	s.commit, s.fsync, s.quorum = mergeHists(commit), mergeHists(fsync), mergeHists(quorum)
	tel := cl.Network().Telemetry()
	s.retrans, s.dupes = tel.Retransmits.Value(), tel.DupesDropped.Value()
	s.byKind = cl.Registry().MessagesByKind()
	return s
}

// layerMetrics reports the per-layer deltas between two snapshots, per
// publication sent and per committed move.
func (after *clusterSnap) layerMetrics(before *clusterSnap, m metrics, pubs, moves int64) {
	inbox := histDelta(after.inboxWait, before.inboxWait)
	match := histDelta(after.match, before.match)
	disp := histDelta(after.dispatch, before.dispatch)
	m.set("broker.inbox_wait_p50_us", histQuantile(inbox, 0.50)*1e6, "us")
	m.set("broker.inbox_wait_p99_us", histQuantile(inbox, 0.99)*1e6, "us")
	m.set("broker.match_p50_us", histQuantile(match, 0.50)*1e6, "us")
	m.set("broker.match_p99_us", histQuantile(match, 0.99)*1e6, "us")
	m.set("broker.dispatch_p99_us", histQuantile(disp, 0.99)*1e6, "us")
	m.set("matching.prt_records", float64(after.prtRecords), "count")
	m.set("transport.retransmits", float64(after.retrans-before.retrans), "count")
	m.set("transport.dupes_dropped", float64(after.dupes-before.dupes), "count")
	var pubMsgs, ctlMsgs int64
	for k, n := range after.byKind {
		d := n - before.byKind[k]
		if k == message.KindPublish {
			pubMsgs += d
		} else {
			ctlMsgs += d
		}
	}
	if pubs > 0 {
		m.set("broker.processed_per_pub", float64(after.processed-before.processed)/float64(pubs), "count")
		m.set("transport.msgs_per_pub", float64(pubMsgs)/float64(pubs), "count")
	}
	if moves > 0 {
		m.set("transport.msgs_per_move", float64(ctlMsgs)/float64(moves), "count")
		m.set("store.fsyncs_per_move", float64(after.fsyncs-before.fsyncs)/float64(moves), "count")
		m.set("store.wal_bytes_per_move", float64(after.walBytes-before.walBytes)/float64(moves), "bytes")
		commit := histDelta(after.commit, before.commit)
		fsync := histDelta(after.fsync, before.fsync)
		quorum := histDelta(after.quorum, before.quorum)
		m.set("store.commit_p99_ms", histQuantile(commit, 0.99)*1e3, "ms")
		m.set("store.fsync_p99_ms", histQuantile(fsync, 0.99)*1e3, "ms")
		m.set("replication.quorum_p50_ms", histQuantile(quorum, 0.50)*1e3, "ms")
		m.set("replication.quorum_p95_ms", histQuantile(quorum, 0.95)*1e3, "ms")
	}
}

// queueWatch polls every broker's inbox length while a measured window
// runs and keeps the largest. The broker's own high-water gauge
// (Stats().QueueHighWater) counts from start, so it would report set-up's
// subscription flood rather than the window's backlog.
type queueWatch struct {
	stop chan struct{}
	done chan struct{}
	max  int
}

// queuePoll is the interval between two polls: a backlog that builds and
// drains within it is missed.
const queuePoll = time.Millisecond

func watchQueues(cl *cluster.Cluster) *queueWatch {
	w := &queueWatch{stop: make(chan struct{}), done: make(chan struct{})}
	brokers := cl.Brokers()
	go func() {
		defer close(w.done)
		tick := time.NewTicker(queuePoll)
		defer tick.Stop()
		for {
			for _, id := range brokers {
				w.max = max(w.max, cl.Broker(id).QueueLen())
			}
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// end stops the polls and returns the largest inbox seen.
func (w *queueWatch) end() int {
	close(w.stop)
	<-w.done
	return w.max
}
