package broker

import (
	"fmt"
	"testing"
	"time"

	"padres/internal/journal"
	"padres/internal/message"
	"padres/internal/metrics"
	"padres/internal/predicate"
	"padres/internal/sim"
	"padres/internal/transport"
)

// newScheduledBroker starts one broker with the given service time on a
// network driven by a virtual clock, journaling dispatches stamped in
// virtual time.
func newScheduledBroker(t *testing.T, service time.Duration) (*Broker, *sim.VirtualClock, *journal.Journal) {
	t.Helper()
	vc := sim.NewVirtualClock(time.Unix(0, 0))
	net := transport.NewNetworkClocked(metrics.NewRegistry(), vc)
	j := journal.New(0)
	j.SetNowFunc(vc.Now)
	net.SetJournal(j)
	b, err := New(Config{ID: "b1", Net: net, ServiceTime: service})
	if err != nil {
		t.Fatal(err)
	}
	b.SetControlSink(func(message.Envelope) {})
	b.Start()
	t.Cleanup(b.Stop)
	return b, vc, j
}

// schedMix alternates routing messages (full service time) with movement
// control messages (a quarter of it).
func schedMix(n int) []message.Message {
	msgs := make([]message.Message, 0, n)
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			msgs = append(msgs, message.Advertise{
				ID: message.AdvID(fmt.Sprintf("a%d", i)), Client: "pub", Filter: predicate.MustParse("[x,>,0]"),
			})
		case 1:
			msgs = append(msgs, message.MoveNegotiate{MoveHeader: message.MoveHeader{
				Tx: message.TxID(fmt.Sprintf("tx%d", i)), Client: "c", Source: "b1", Target: "b1",
			}})
		default:
			msgs = append(msgs, message.Subscribe{
				ID: message.SubID(fmt.Sprintf("s%d", i)), Client: "sub", Filter: predicate.MustParse("[x,>,0]"),
			})
		}
	}
	return msgs
}

// dispatches returns the journal's dispatch records in append order.
func dispatches(j *journal.Journal) []journal.Record {
	var out []journal.Record
	for _, r := range j.Snapshot() {
		if r.Kind == journal.KindDispatch {
			out = append(out, r)
		}
	}
	return out
}

// TestScheduledDispatchFIFOAndCost drives the scheduled dispatch driver
// with a service time: messages are dispatched in inbox order, one at a
// time, each after its own service cost — so the last one starts exactly
// when the summed costs predict (control messages cost ServiceTime/4).
func TestScheduledDispatchFIFOAndCost(t *testing.T) {
	const service = 8 * time.Millisecond
	b, vc, j := newScheduledBroker(t, service)
	start := vc.Now()
	msgs := schedMix(9)
	for _, m := range msgs {
		b.Inject(message.ClientNode("c", "b1"), m)
	}
	vc.Run(0)

	recs := dispatches(j)
	if len(recs) != len(msgs) {
		t.Fatalf("dispatched %d of %d", len(recs), len(msgs))
	}
	at := start
	for i, m := range msgs {
		cost := service
		if m.Kind().IsControl() {
			cost = service / 4
		}
		at = at.Add(cost)
		if got, want := recs[i].Ref, message.RefOf(m); got != want {
			t.Fatalf("dispatch %d is %s, want %s (FIFO order broken)", i, got, want)
		}
		if !recs[i].Wall.Equal(at) {
			t.Fatalf("dispatch %d (%s) at %v, want %v", i, recs[i].Ref, recs[i].Wall.Sub(start), at.Sub(start))
		}
	}
	if got := vc.Now(); !got.Equal(at) {
		t.Fatalf("loop ended at %v, want %v", got.Sub(start), at.Sub(start))
	}
	if got := b.Stats().Processed; got != int64(len(msgs)) {
		t.Fatalf("processed %d, want %d", got, len(msgs))
	}
}

// TestScheduledDispatchPause checks that a paused scheduled broker
// processes nothing while its inbox fills, that a message already in
// service when Pause lands still completes, and that Unpause releases every
// queued message in order.
func TestScheduledDispatchPause(t *testing.T) {
	const service = 4 * time.Millisecond
	b, vc, j := newScheduledBroker(t, service)
	msgs := schedMix(6)
	from := message.ClientNode("c", "b1")
	runPaused := func(want int) {
		t.Helper()
		vc.Run(0)
		if got := b.Stats().Processed; got != int64(want) {
			t.Fatalf("processed %d while paused, want %d", got, want)
		}
	}

	b.Pause()
	b.Inject(from, msgs[0])
	b.Inject(from, msgs[1])
	runPaused(0)
	if got := b.QueueLen(); got != 2 {
		t.Fatalf("queue length %d while paused, want 2", got)
	}

	// Unpause, let the first message enter service, then pause again: it
	// finishes, everything behind it waits.
	b.Unpause()
	vc.Step()
	b.Pause()
	for _, m := range msgs[2:] {
		b.Inject(from, m)
	}
	runPaused(1)

	b.Unpause()
	vc.Run(0)
	if got := b.Stats().Processed; got != int64(len(msgs)) {
		t.Fatalf("processed %d after Unpause, want %d", got, len(msgs))
	}
	recs := dispatches(j)
	for i, m := range msgs {
		if got, want := recs[i].Ref, message.RefOf(m); got != want {
			t.Fatalf("dispatch %d is %s, want %s", i, got, want)
		}
	}
}
