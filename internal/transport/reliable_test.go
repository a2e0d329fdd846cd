package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"padres/internal/message"
	"padres/internal/metrics"
	"padres/internal/predicate"
	"padres/internal/telemetry"
)

// sub builds a distinct control-plane message for sequencing tests.
func sub(i int) message.Message {
	return message.Subscribe{
		ID:     message.SubID(fmt.Sprintf("s%04d", i)),
		Client: "c1",
		Filter: predicate.MustParse("[x,>,0]"),
	}
}

// settleFor waits for full quiescence: every reliable message acked or
// dead-lettered, every wire copy delivered or dropped.
func settleFor(t *testing.T, reg *metrics.Registry, d time.Duration) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	if err := reg.AwaitQuiescent(ctx); err != nil {
		t.Fatalf("network did not settle: %v", err)
	}
}

func TestReliableExactlyOnceUnderLoss(t *testing.T) {
	net, c, reg := newPair(t, LinkOptions{
		Reliable:   true,
		Faults:     FaultProfile{Drop: 0.4, Dup: 0.3, Reorder: 0.3, Seed: 7},
		Retransmit: RetransmitOptions{Base: 5 * time.Millisecond, Cap: 50 * time.Millisecond, MaxAttempts: 40},
	})
	const n = 200
	for i := 0; i < n; i++ {
		if err := net.Send("a", "b", sub(i)); err != nil {
			t.Fatal(err)
		}
	}
	settleFor(t, reg, 30*time.Second)
	envs := c.envelopes()
	if len(envs) != n {
		t.Fatalf("delivered %d control messages, want exactly %d", len(envs), n)
	}
	// In-order, exactly once: the resequencer must hand the stream over in
	// send order despite drops, dups, and swaps on the wire.
	for i, env := range envs {
		if got := env.Msg.(message.Subscribe).ID; got != message.SubID(fmt.Sprintf("s%04d", i)) {
			t.Fatalf("position %d delivered %s out of order", i, got)
		}
	}
	tel := net.Telemetry()
	if tel.Retransmits.Value() == 0 {
		t.Error("40% drop rate produced no retransmissions")
	}
	if tel.DupesDropped.Value() == 0 {
		t.Error("dup injection produced no dedup drops")
	}
	if tel.InjectedDrops.Value() == 0 || tel.InjectedDups.Value() == 0 {
		t.Error("fault injector recorded no activity")
	}
}

func TestUnreliableLinkUnchanged(t *testing.T) {
	// A default link must not sequence anything: envelopes arrive with
	// Seq 0 and no retransmit machinery runs.
	net, c, reg := newPair(t, LinkOptions{})
	if err := net.Send("a", "b", sub(1)); err != nil {
		t.Fatal(err)
	}
	settleFor(t, reg, 5*time.Second)
	envs := c.envelopes()
	if len(envs) != 1 || envs[0].Seq != 0 {
		t.Fatalf("best-effort link altered the envelope: %+v", envs)
	}
	if net.Telemetry().Acks.Value() != 0 {
		t.Error("best-effort link sent acks")
	}
}

func TestPublishStaysBestEffort(t *testing.T) {
	// Publications on a reliable lossy link may be lost — they are outside
	// the control-plane contract — and must not be sequenced.
	net, c, reg := newPair(t, LinkOptions{
		Reliable: true,
		Faults:   FaultProfile{Drop: 0.5, Seed: 3},
	})
	const n = 100
	for i := 0; i < n; i++ {
		if err := net.Send("a", "b", message.Publish{ID: message.PubID(fmt.Sprintf("p%d", i)), Client: "c1"}); err != nil {
			t.Fatal(err)
		}
	}
	settleFor(t, reg, 10*time.Second)
	envs := c.envelopes()
	if len(envs) == n {
		t.Error("50% drop rate lost no publications: best-effort path not exercised")
	}
	for _, env := range envs {
		if env.Seq != 0 {
			t.Fatalf("publication was sequenced: %+v", env)
		}
	}
}

func TestPartitionTripsBreakerAndHeals(t *testing.T) {
	var mu sync.Mutex
	var transitions []string
	reg := metrics.NewRegistry()
	net := NewNetwork(reg)
	net.SetLinkStateHandler(func(from, to message.NodeID, up bool) {
		mu.Lock()
		transitions = append(transitions, fmt.Sprintf("%s->%s up=%t", from, to, up))
		mu.Unlock()
	})
	c := &collector{net: net, done: true}
	net.Register("a", func(message.Envelope) {})
	net.Register("b", c.handler)
	if err := net.AddLink("a", "b", LinkOptions{
		Reliable:   true,
		Retransmit: RetransmitOptions{Base: time.Millisecond, Cap: 4 * time.Millisecond, MaxAttempts: 3},
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)

	if err := net.Partition("a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := net.Send("a", "b", sub(0)); err != nil {
		t.Fatal(err)
	}
	// The retransmit pacer exhausts MaxAttempts against the partition and
	// opens the breaker; the pending entry is dead-lettered, which is what
	// lets the network settle.
	settleFor(t, reg, 10*time.Second)
	if !net.LinkDown("a", "b") {
		t.Fatal("breaker did not open after exhausted retries")
	}
	if err := net.Send("a", "b", sub(1)); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("send on a down link: got %v, want ErrLinkDown", err)
	}
	tel := net.Telemetry()
	if tel.DeadLetters.Value() < 2 {
		t.Errorf("dead letters = %d, want >= 2 (drained entry + fast-failed send)", tel.DeadLetters.Value())
	}
	if tel.LinksDown.Value() != 1 {
		t.Errorf("links_down gauge = %d, want 1", tel.LinksDown.Value())
	}

	if err := net.Heal("a", "b"); err != nil {
		t.Fatal(err)
	}
	if net.LinkDown("a", "b") {
		t.Fatal("breaker still open after Heal")
	}
	if tel.LinksDown.Value() != 0 {
		t.Errorf("links_down gauge = %d after heal, want 0", tel.LinksDown.Value())
	}
	if err := net.Send("a", "b", sub(2)); err != nil {
		t.Fatal(err)
	}
	settleFor(t, reg, 10*time.Second)
	envs := c.envelopes()
	if len(envs) != 1 {
		t.Fatalf("post-heal delivery count = %d, want 1", len(envs))
	}
	if got := envs[0].Msg.(message.Subscribe).ID; got != "s0002" {
		t.Fatalf("post-heal delivered %s, want s0002", got)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"a->b up=false", "a->b up=true"}
	if len(transitions) != 2 || transitions[0] != want[0] || transitions[1] != want[1] {
		t.Fatalf("link-state transitions = %v, want %v", transitions, want)
	}
}

func TestResendQueueOverflowTripsBreaker(t *testing.T) {
	net, _, reg := newPair(t, LinkOptions{
		Reliable: true,
		Retransmit: RetransmitOptions{
			Base: 500 * time.Millisecond, Cap: time.Second, MaxAttempts: 100, QueueLimit: 8,
		},
	})
	if err := net.Partition("a", "b"); err != nil {
		t.Fatal(err)
	}
	var tripped error
	for i := 0; i < 20; i++ {
		if err := net.Send("a", "b", sub(i)); err != nil {
			tripped = err
			break
		}
	}
	if !errors.Is(tripped, ErrLinkDown) {
		t.Fatalf("overflowing the resend queue: got %v, want ErrLinkDown", tripped)
	}
	if !net.LinkDown("a", "b") {
		t.Fatal("breaker did not open on overflow")
	}
	settleFor(t, reg, 10*time.Second)
}

func TestReliableSettleReleasesAllTokens(t *testing.T) {
	// After a lossy soak settles, the in-flight ledger must be exactly
	// balanced — double-release or leak would wedge later Settle calls.
	net, _, reg := newPair(t, LinkOptions{
		Reliable:   true,
		Faults:     FaultProfile{Drop: 0.3, Dup: 0.3, Reorder: 0.2, Seed: 11},
		Retransmit: RetransmitOptions{Base: 2 * time.Millisecond, Cap: 20 * time.Millisecond, MaxAttempts: 60},
	})
	for i := 0; i < 100; i++ {
		if err := net.Send("a", "b", sub(i)); err != nil {
			t.Fatal(err)
		}
	}
	settleFor(t, reg, 30*time.Second)
	// A second settle must return immediately: nothing may still hold a
	// token once the first one reported quiescence.
	settleFor(t, reg, time.Second)
}

// awaitCounter waits until c reaches min, re-checking once per tick.
func awaitCounter(t *testing.T, c *telemetry.Counter, min int64, tick, limit time.Duration) {
	t.Helper()
	deadline := time.Now().Add(limit)
	for c.Value() < min {
		if time.Now().After(deadline) {
			t.Fatalf("counter stuck at %d, want >= %d", c.Value(), min)
		}
		time.Sleep(tick)
	}
}

// TestReliablePacerStopsOnClose runs the timer-chain pacer in real time
// on a link that drops every frame: retransmits keep rising while the
// network is open, and once Close returns no armed timer remains and the
// counter never moves again.
func TestReliablePacerStopsOnClose(t *testing.T) {
	const base = 2 * time.Millisecond
	net, _, _ := newPair(t, LinkOptions{
		Reliable:   true,
		Faults:     FaultProfile{Drop: 1, Seed: 3},
		Retransmit: RetransmitOptions{Base: base, Cap: 2 * base, MaxAttempts: 1 << 20},
	})
	for i := 0; i < 4; i++ {
		if err := net.Send("a", "b", sub(i)); err != nil {
			t.Fatal(err)
		}
	}
	retx := &net.Telemetry().Retransmits
	awaitCounter(t, retx, 8, base, 10*time.Second)

	net.Close()
	after := retx.Value()
	for _, l := range net.links {
		l.rel.mu.Lock()
		armed, closed := l.rel.timer != nil, l.rel.closed
		l.rel.mu.Unlock()
		if armed || !closed {
			t.Fatalf("link %s->%s after Close: timer armed=%v closed=%v", l.from, l.to, armed, closed)
		}
	}
	// Every pending entry was due again within Cap; watch many periods.
	time.Sleep(20 * base)
	if got := retx.Value(); got != after {
		t.Fatalf("retransmits moved from %d to %d after Close", after, got)
	}
}
