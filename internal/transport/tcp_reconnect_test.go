package transport_test

import (
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"padres/internal/broker"
	"padres/internal/message"
	"padres/internal/metrics"
	"padres/internal/overlay"
	"padres/internal/predicate"
	"padres/internal/transport"
)

// flakyProxy relays TCP connections to a target address and can sever all
// live relays on demand, simulating a network blip between two gateways
// whose endpoints both stay up.
type flakyProxy struct {
	ln     net.Listener
	target string

	mu    sync.Mutex
	conns []net.Conn
}

func newFlakyProxy(t *testing.T, target string) *flakyProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fp := &flakyProxy{ln: ln, target: target}
	t.Cleanup(func() { _ = ln.Close(); fp.killAll() })
	go fp.acceptLoop()
	return fp
}

func (fp *flakyProxy) addr() string { return fp.ln.Addr().String() }

func (fp *flakyProxy) acceptLoop() {
	for {
		in, err := fp.ln.Accept()
		if err != nil {
			return
		}
		out, err := net.Dial("tcp", fp.target)
		if err != nil {
			_ = in.Close()
			continue
		}
		fp.mu.Lock()
		fp.conns = append(fp.conns, in, out)
		fp.mu.Unlock()
		go func() { _, _ = io.Copy(out, in); _ = out.Close() }()
		go func() { _, _ = io.Copy(in, out); _ = in.Close() }()
	}
}

// killAll severs every live relay; later dials still succeed.
func (fp *flakyProxy) killAll() {
	fp.mu.Lock()
	conns := fp.conns
	fp.conns = nil
	fp.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
}

// TestGatewayAutoReconnect kills the connection between two reliable
// gateways mid-stream and verifies the supervisor redials, replays the
// unacked control traffic, and the remote applies every message exactly
// once.
func TestGatewayAutoReconnect(t *testing.T) {
	top, err := overlay.Linear(2)
	if err != nil {
		t.Fatal(err)
	}
	b1 := startReliableTCPBroker(t, "b1", top)
	b2 := startReliableTCPBroker(t, "b2", top)
	proxy := newFlakyProxy(t, b2.gw.Addr())

	if err := b1.gw.DialPeer("b2", proxy.addr()); err != nil {
		t.Fatal(err)
	}
	if err := b1.gw.StartPeerReader("b2"); err != nil {
		t.Fatal(err)
	}

	adv := func(i int) message.Message {
		return message.Advertise{
			ID:     message.AdvID(fmt.Sprintf("a%d", i)),
			Client: "pub",
			Filter: predicate.MustParse("[x,>,0]"),
		}
	}
	b1.b.Inject("pub@b1", adv(1))
	awaitSRT(t, b2, 1)

	proxy.killAll()
	// These two ride the resend queue across the outage: the dead socket
	// fails, the supervisor redials through the proxy, and the replay
	// delivers them.
	b1.b.Inject("pub@b1", adv(2))
	b1.b.Inject("pub@b1", adv(3))
	awaitSRT(t, b2, 3)

	if got := b1.net.Telemetry().Reconnects.Value(); got < 1 {
		t.Fatalf("reconnects = %d, want >= 1", got)
	}
}

func startReliableTCPBroker(t *testing.T, id message.BrokerID, top *overlay.Topology) *tcpBroker {
	t.Helper()
	reg := metrics.NewRegistry()
	nw := transport.NewNetwork(reg)
	hops, err := top.NextHops(id)
	if err != nil {
		t.Fatal(err)
	}
	b, err := broker.New(broker.Config{
		ID:        id,
		Net:       nw,
		Neighbors: top.Neighbors(id),
		NextHops:  hops,
	})
	if err != nil {
		t.Fatal(err)
	}
	b.Start()
	gw, err := transport.NewGateway(transport.GatewayConfig{
		Net:           nw,
		Local:         id.Node(),
		Broker:        b,
		Listen:        "127.0.0.1:0",
		IOTimeout:     2 * time.Second,
		Reliable:      true,
		ReconnectBase: 20 * time.Millisecond,
		ReconnectCap:  200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	tb := &tcpBroker{id: id, b: b, net: nw, gw: gw}
	t.Cleanup(func() {
		gw.Close()
		b.Stop()
		nw.Close()
	})
	return tb
}

func awaitSRT(t *testing.T, tb *tcpBroker, want int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if len(tb.b.SRTSnapshot()) >= want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("broker %s SRT never reached %d records (have %d)", tb.id, want, len(tb.b.SRTSnapshot()))
}
