package transport_test

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"padres/internal/message"
	"padres/internal/metrics"
	"padres/internal/overlay"
	"padres/internal/predicate"
	"padres/internal/transport"
)

// stubPort records everything the gateway injects into the "broker".
type stubPort struct {
	mu  sync.Mutex
	got []message.Message
}

func (s *stubPort) Inject(from message.NodeID, m message.Message) { s.record(m) }
func (s *stubPort) InjectRemote(from message.NodeID, m message.Message, lamport uint64) {
	s.record(m)
}
func (s *stubPort) AttachClient(message.NodeID, func(message.Publish)) {}
func (s *stubPort) DetachClient(message.NodeID)                        {}

func (s *stubPort) record(m message.Message) {
	s.mu.Lock()
	s.got = append(s.got, m)
	s.mu.Unlock()
}

func (s *stubPort) advIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for _, m := range s.got {
		if a, ok := m.(message.Advertise); ok {
			out = append(out, string(a.ID))
		}
	}
	return out
}

func regAdv(i int) message.Message {
	return message.Advertise{
		ID:     message.AdvID(fmt.Sprintf("a%d", i)),
		Client: "pub",
		Filter: predicate.MustParse("[x,>,0]"),
	}
}

// newRawGateway starts a reliable gateway "gw" feeding a recording stub,
// for tests that speak the wire protocol over a raw socket.
func newRawGateway(t *testing.T) (*transport.Gateway, *stubPort, *transport.Network) {
	t.Helper()
	stub := &stubPort{}
	nw := transport.NewNetwork(metrics.NewRegistry())
	t.Cleanup(nw.Close)
	nw.Register("gw", func(env message.Envelope) { nw.Done(env.Msg) })
	gw, err := transport.NewGateway(transport.GatewayConfig{
		Net:      nw,
		Local:    "gw",
		Broker:   stub,
		Listen:   "127.0.0.1:0",
		Reliable: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	return gw, stub, nw
}

// rawPeer stands in for a remote broker "remote" whose sequence numbers,
// epochs and incarnation the test picks frame by frame.
type rawPeer struct {
	t    *testing.T
	conn net.Conn
	enc  *message.Encoder
	dec  *message.Decoder
	data []message.Envelope // sequenced frames from the gateway, in arrival order
}

// dialRaw connects to the gateway and sends the broker hello with the
// given incarnation.
func dialRaw(t *testing.T, addr string, incarnation uint64) *rawPeer {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	r := rawOn(t, conn)
	r.hello(incarnation)
	return r
}

func rawOn(t *testing.T, conn net.Conn) *rawPeer {
	t.Cleanup(func() { _ = conn.Close() })
	return &rawPeer{t: t, conn: conn, enc: message.NewEncoder(conn), dec: message.NewDecoder(conn)}
}

func (r *rawPeer) hello(incarnation uint64) {
	r.t.Helper()
	hello := message.MoveNegotiate{MoveHeader: message.MoveHeader{
		Tx:     message.TxID("hello/" + string(transport.PeerBroker)),
		Client: "remote",
	}}
	if err := r.enc.Encode(message.Envelope{From: "remote", Msg: hello, Epoch: incarnation}); err != nil {
		r.t.Fatal(err)
	}
}

func (r *rawPeer) send(epoch, seq uint64, m message.Message) {
	r.t.Helper()
	if err := r.enc.Encode(message.Envelope{From: "remote", Msg: m, Epoch: epoch, Seq: seq}); err != nil {
		r.t.Fatal(err)
	}
}

// next reads the gateway's next ack, recording the sequenced frames that
// precede it; the gateway's hello is skipped.
func (r *rawPeer) next() (message.LinkAck, bool) {
	r.t.Helper()
	_ = r.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		env, err := r.dec.Decode()
		if err != nil {
			r.t.Fatal(err)
		}
		if ack, ok := env.Msg.(message.LinkAck); ok {
			return ack, true
		}
		if env.Seq > 0 {
			r.data = append(r.data, env)
			return message.LinkAck{}, false
		}
	}
}

func (r *rawPeer) expectAck(cum, epoch uint64) {
	r.t.Helper()
	for {
		ack, ok := r.next()
		if !ok {
			continue
		}
		if ack.Cum != cum || ack.Epoch != epoch {
			r.t.Fatalf("ack {Cum:%d Epoch:%d}, want {Cum:%d Epoch:%d}", ack.Cum, ack.Epoch, cum, epoch)
		}
		return
	}
}

// awaitData reads until n sequenced frames have arrived from the gateway.
func (r *rawPeer) awaitData(n int) {
	r.t.Helper()
	for len(r.data) < n {
		r.next()
	}
}

// dataIDs renders the recorded frames as "id@epoch/seq".
func (r *rawPeer) dataIDs() string {
	var out []string
	for _, env := range r.data {
		out = append(out, fmt.Sprintf("%s@%d/%d", env.Msg.(message.Advertise).ID, env.Epoch, env.Seq))
	}
	return fmt.Sprint(out)
}

// TestGatewayReceiveGapAwareDedup drives the gateway's receive protocol
// over a raw socket: out-of-order frames must be released exactly once
// and in order, duplicates dropped, and the cumulative ack must never
// advance past a gap — acking a frame that was skipped over would let the
// sender trim it unreceived. A higher epoch (the sender's breaker reset)
// restarts the stream; a frame of an older epoch is discarded.
func TestGatewayReceiveGapAwareDedup(t *testing.T) {
	gw, stub, nw := newRawGateway(t)
	r := dialRaw(t, gw.Addr(), 1)

	r.send(0, 2, regAdv(2)) // gap: held, not cum-acked
	r.expectAck(0, 0)
	r.send(0, 4, regAdv(4))
	r.expectAck(0, 0)
	r.send(0, 2, regAdv(2)) // duplicate of a held frame: dropped
	r.expectAck(0, 0)
	r.send(0, 1, regAdv(1)) // fills the first gap; cum coalesces over 2
	r.expectAck(2, 0)
	r.send(0, 3, regAdv(3)) // fills the second gap; cum coalesces over 4
	r.expectAck(4, 0)
	r.send(0, 3, regAdv(3)) // duplicate below cum: dropped
	r.expectAck(4, 0)
	r.send(1, 2, regAdv(6)) // new epoch: the stream restarts, seq 2 is a gap
	r.expectAck(0, 1)
	r.send(1, 1, regAdv(5))
	r.expectAck(2, 1)
	r.send(0, 5, regAdv(7)) // stale epoch: discarded
	r.expectAck(2, 1)

	want := []string{"a1", "a2", "a3", "a4", "a5", "a6"}
	got := stub.advIDs()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("injected advs %v, want %v (exactly once each, in order)", got, want)
	}
	if dupes := nw.Telemetry().DupesDropped.Value(); dupes != 2 {
		t.Fatalf("dupes dropped = %d, want 2", dupes)
	}
}

// TestGatewayPeerRestartRebasesSession: a peer process that restarts
// numbers its frames from 1 again. Its new incarnation must re-base the
// survivor's session, so the restarted peer's frames are applied exactly
// once and the survivor's unacked frames reach it renumbered under a new
// epoch.
func TestGatewayPeerRestartRebasesSession(t *testing.T) {
	gw, stub, nw := newRawGateway(t)
	first := dialRaw(t, gw.Addr(), 1)
	for i := uint64(1); i <= 3; i++ {
		first.send(0, i, regAdv(int(i)))
		first.expectAck(i, 0)
	}
	// Frames toward the peer that it never acks.
	for i := 100; i < 103; i++ {
		if err := nw.Send("gw", "remote", regAdv(i)); err != nil {
			t.Fatal(err)
		}
	}
	first.awaitData(3)
	_ = first.conn.Close() // the peer process dies

	second := dialRaw(t, gw.Addr(), 2)
	second.send(0, 1, regAdv(10))
	second.expectAck(1, 0)
	second.awaitData(3)

	if got, want := second.dataIDs(), "[a100@1/1 a101@1/2 a102@1/3]"; got != want {
		t.Fatalf("restarted peer received %s, want %s", got, want)
	}
	if got, want := fmt.Sprint(stub.advIDs()), "[a1 a2 a3 a10]"; got != want {
		t.Fatalf("injected advs %s, want %s", got, want)
	}
}

// TestGatewayRedialsRestartedAcceptor is the mirror case: the peer the
// gateway dialled restarts, and its answering hello names the new
// incarnation, so the redialling survivor re-bases before it replays.
func TestGatewayRedialsRestartedAcceptor(t *testing.T) {
	gw, stub, nw := newRawGateway(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	_ = ln.(*net.TCPListener).SetDeadline(time.Now().Add(10 * time.Second))
	accept := func(incarnation uint64) *rawPeer {
		t.Helper()
		conn, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		r := rawOn(t, conn)
		if env, err := r.dec.Decode(); err != nil || env.Msg.Kind() != message.KindMoveNegotiate {
			t.Fatalf("first frame from the dialler: %+v, %v; want its hello", env, err)
		}
		r.hello(incarnation)
		return r
	}

	if err := gw.DialPeer("remote", ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	if err := gw.StartPeerReader("remote"); err != nil {
		t.Fatal(err)
	}
	first := accept(1)
	for i := uint64(1); i <= 3; i++ {
		first.send(0, i, regAdv(int(i)))
		first.expectAck(i, 0)
	}
	for i := 100; i < 103; i++ {
		if err := nw.Send("gw", "remote", regAdv(i)); err != nil {
			t.Fatal(err)
		}
	}
	first.awaitData(3)
	_ = first.conn.Close() // the acceptor's process dies

	second := accept(2) // the gateway redials the restarted process
	second.awaitData(3)
	second.send(0, 1, regAdv(10))
	second.expectAck(1, 0)
	if got, want := second.dataIDs(), "[a100@1/1 a101@1/2 a102@1/3]"; got != want {
		t.Fatalf("restarted acceptor received %s, want %s", got, want)
	}
	if got, want := fmt.Sprint(stub.advIDs()), "[a1 a2 a3 a10]"; got != want {
		t.Fatalf("injected advs %s, want %s", got, want)
	}
}

// TestGatewayResendOverflowTripsBreaker: while the peer is away, control
// frames beyond the resend queue's bound trip the session's breaker, as on
// an in-process link: the link is reported down, every lost frame is
// dead-lettered, and the peer's next connection heals the session under a
// new epoch that carries later frames exactly once.
func TestGatewayResendOverflowTripsBreaker(t *testing.T) {
	gw, _, nw := newRawGateway(t)
	var mu sync.Mutex
	var transitions []string
	nw.SetLinkStateHandler(func(from, to message.NodeID, up bool) {
		mu.Lock()
		transitions = append(transitions, fmt.Sprintf("%s->%s up=%t", from, to, up))
		mu.Unlock()
	})
	awaitTransitions := func(want string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			mu.Lock()
			got := fmt.Sprint(transitions)
			mu.Unlock()
			if got == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("link-state transitions %s, want %s", got, want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	first := dialRaw(t, gw.Addr(), 1)
	first.send(0, 1, regAdv(1))
	first.expectAck(1, 0)
	_ = first.conn.Close()

	const queueLimit = 1024 // the session's default resend-queue bound
	const n = queueLimit + 8
	for i := 0; i < n; i++ {
		if err := nw.Send("gw", "remote", regAdv(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := nw.Registry().AwaitQuiescent(ctx); err != nil {
		t.Fatal(err)
	}
	awaitTransitions("[gw->remote up=false]")
	if got := nw.Telemetry().DeadLetters.Value(); got != n {
		t.Fatalf("dead letters = %d, want %d (every frame sent while the peer was away)", got, n)
	}

	second := dialRaw(t, gw.Addr(), 1)
	second.send(0, 2, regAdv(2)) // the inbound stream is untouched
	second.expectAck(2, 0)
	awaitTransitions("[gw->remote up=false gw->remote up=true]")
	for i := 0; i < 3; i++ {
		if err := nw.Send("gw", "remote", regAdv(5000+i)); err != nil {
			t.Fatal(err)
		}
	}
	second.awaitData(3)
	second.send(0, 0, message.LinkAck{Cum: 3, Epoch: 1})
	if got, want := second.dataIDs(), "[a5000@1/1 a5001@1/2 a5002@1/3]"; got != want {
		t.Fatalf("after the heal the peer received %s, want %s", got, want)
	}
	_ = second.conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if env, err := second.dec.Decode(); err == nil {
		t.Fatalf("unexpected frame after the acked stream: %+v", env)
	}
}

// TestGatewayAcceptSideReplayAfterRedial verifies that an accepted peer's
// unacked frames survive the connection dying: the acceptor has no dial
// address, so the frames must be replayed when the remote redials in.
func TestGatewayAcceptSideReplayAfterRedial(t *testing.T) {
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

	// Warm up the dial direction first: once b2's SRT holds b1's adv, b2's
	// accept-side wiring for b1 is guaranteed live (Register precedes the
	// read loop). A disjoint filter keeps the covering quench out of the
	// reverse flood.
	b1.b.Inject("warm@b1", message.Advertise{
		ID:     "warm",
		Client: "warm",
		Filter: predicate.MustParse("[y,>,0]"),
	})
	awaitSRT(t, b2, 1)

	// b2 — the acceptor — sends toward b1 over the accepted connection.
	b2.b.Inject("pub@b2", regAdv(1))
	awaitSRT(t, b1, 2) // b1's own warm adv + a1

	proxy.killAll()
	// These wait in b2's resend queue; only b1's redial coming back in can
	// carry them, via the accept-side replay after b1's hello.
	b2.b.Inject("pub@b2", regAdv(2))
	b2.b.Inject("pub@b2", regAdv(3))
	awaitSRT(t, b1, 4)
}

// TestGatewayReconnectConcurrentSendsNoLoss hammers the replay/send race:
// frames injected while the supervisor is mid-replay must not overtake the
// replayed prefix and get it acked away unreceived. Every advertisement
// must reach the remote SRT despite repeated connection kills.
func TestGatewayReconnectConcurrentSendsNoLoss(t *testing.T) {
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

	const n = 120
	for i := 1; i <= n; i++ {
		b1.b.Inject("pub@b1", regAdv(i))
		if i%20 == 0 {
			proxy.killAll()
		}
		time.Sleep(time.Millisecond)
	}
	awaitSRT(t, b2, n)
}
