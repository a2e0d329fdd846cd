package broker

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"padres/internal/message"
	"padres/internal/metrics"
	"padres/internal/overlay"
	"padres/internal/predicate"
	"padres/internal/transport"
)

// newPipelinePair builds two linked brokers b1-b2 with the given dispatch
// width and returns them (started, with cleanup registered) along with the
// shared registry, whose in-flight accounting the tests use as a barrier.
func newPipelinePair(t *testing.T, workers int) (*Broker, *Broker, *transport.Network, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	net := transport.NewNetwork(reg)
	t.Cleanup(net.Close)
	top := overlay.New()
	for _, id := range []message.BrokerID{"b1", "b2"} {
		if err := top.AddBroker(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := top.Connect("b1", "b2"); err != nil {
		t.Fatal(err)
	}
	brokers := make(map[message.BrokerID]*Broker, 2)
	for _, id := range []message.BrokerID{"b1", "b2"} {
		hops, err := top.NextHops(id)
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(Config{
			ID: id, Net: net, Neighbors: top.Neighbors(id), NextHops: hops,
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		b.Start()
		t.Cleanup(b.Stop)
		brokers[id] = b
	}
	if err := net.AddLink("b1", "b2", transport.LinkOptions{CountTraffic: true}); err != nil {
		t.Fatal(err)
	}
	return brokers["b1"], brokers["b2"], net, reg
}

// settle blocks until every injected message has fully drained — processed,
// forwarded, and delivered — using the registry's in-flight accounting.
// Brokers release a message's token only after processing it (and a
// publication's only after its last egress action), so quiescence implies
// routing-table updates and client deliveries are visible.
func settle(t *testing.T, reg *metrics.Registry) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := reg.AwaitQuiescent(ctx); err != nil {
		t.Fatalf("pipeline never went quiescent: %v", err)
	}
}

// testPipelineOrdering drives several publication sources through a
// two-broker path and asserts the ordering contract the pipeline must
// preserve: every publication is delivered exactly once, and deliveries
// from one source arrive in that source's publish order.
func testPipelineOrdering(t *testing.T, workers int) {
	t.Helper()
	b1, b2, _, reg := newPipelinePair(t, workers)

	const sources = 4
	const perSource = 200

	var mu sync.Mutex
	seen := make(map[string]int)       // pub ID -> delivery count
	lastSeq := make([]int, sources)    // per-source last delivered seq
	violations := make([]string, 0, 4) // ordering violations
	for i := range lastSeq {
		lastSeq[i] = -1
	}
	var delivered atomic.Int64

	subNode := message.ClientNode("sub", "b2")
	b2.AttachClient(subNode, func(m message.Publish) {
		// One egress flusher serves this destination, so the callback is
		// single-threaded; the mutex also covers the final assertions.
		parts := strings.SplitN(string(m.ID), "-", 2)
		src, _ := strconv.Atoi(strings.TrimPrefix(parts[0], "p"))
		seq, _ := strconv.Atoi(parts[1])
		mu.Lock()
		seen[string(m.ID)]++
		if seq <= lastSeq[src] {
			violations = append(violations,
				fmt.Sprintf("source %d: seq %d delivered after %d", src, seq, lastSeq[src]))
		}
		lastSeq[src] = seq
		mu.Unlock()
		delivered.Add(1)
	})

	pubNodes := make([]message.NodeID, sources)
	for i := range pubNodes {
		pubNodes[i] = message.ClientNode(message.ClientID(fmt.Sprintf("p%d", i)), "b1")
		b1.Inject(pubNodes[i], message.Advertise{
			ID:     message.AdvID(fmt.Sprintf("a%d", i)),
			Client: message.ClientID(fmt.Sprintf("p%d", i)),
			Filter: predicate.MustParse("[x,>,0]"),
		})
	}
	b2.Inject(subNode, message.Subscribe{ID: "s1", Client: "sub", Filter: predicate.MustParse("[x,>,0]")})

	settle(t, reg)
	if b1.Stats().PRTSize < 1 {
		t.Fatal("subscription never reached b1")
	}

	var wg sync.WaitGroup
	for src := 0; src < sources; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for seq := 0; seq < perSource; seq++ {
				b1.Inject(pubNodes[src], message.Publish{
					ID:    message.PubID(fmt.Sprintf("p%d-%d", src, seq)),
					Event: predicate.Event{"x": predicate.Number(float64(1 + seq))},
				})
			}
		}(src)
	}
	wg.Wait()

	want := int64(sources * perSource)
	settle(t, reg)
	if got := delivered.Load(); got != want {
		t.Fatalf("delivered %d of %d", got, want)
	}

	mu.Lock()
	defer mu.Unlock()
	for _, v := range violations {
		t.Errorf("FIFO violation: %s", v)
	}
	if len(seen) != int(want) {
		t.Errorf("distinct publications delivered = %d, want %d", len(seen), want)
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("publication %s delivered %d times, want exactly once", id, n)
		}
	}
}

func TestPipelineOrderingSerial(t *testing.T)   { testPipelineOrdering(t, 1) }
func TestPipelineOrderingParallel(t *testing.T) { testPipelineOrdering(t, 8) }

// TestPipelineControlBarrier checks the serialized control lane: an
// unsubscription enqueued after a burst of publications must not overtake
// them — every publication published before the unsubscribe is delivered.
func TestPipelineControlBarrier(t *testing.T) {
	b1, _, _, reg := newPipelinePair(t, 8)

	var delivered atomic.Int64
	subNode := message.ClientNode("sub", "b1")
	pubNode := message.ClientNode("pub", "b1")
	b1.AttachClient(subNode, func(message.Publish) { delivered.Add(1) })
	b1.Inject(pubNode, message.Advertise{ID: "a1", Client: "pub", Filter: predicate.MustParse("[x,>,0]")})
	b1.Inject(subNode, message.Subscribe{ID: "s1", Client: "sub", Filter: predicate.MustParse("[x,>,0]")})

	settle(t, reg)
	if b1.Stats().PRTSize < 1 {
		t.Fatal("subscription never installed")
	}

	const pubs = 500
	for i := 0; i < pubs; i++ {
		b1.Inject(pubNode, message.Publish{
			ID:    message.PubID(fmt.Sprintf("p%d", i)),
			Event: predicate.Event{"x": predicate.Number(float64(1 + i))},
		})
	}
	// The unsubscribe is behind all pubs in the inbox; the drain barrier
	// must flush every queued publication through egress before the PRT
	// entry is removed.
	b1.Inject(subNode, message.Unsubscribe{ID: "s1", Client: "sub"})

	settle(t, reg)
	if b1.Stats().PRTSize > 0 {
		t.Fatal("unsubscribe never processed")
	}
	if got := delivered.Load(); got != pubs {
		t.Fatalf("delivered %d of %d publications enqueued before the unsubscribe", got, pubs)
	}
}
