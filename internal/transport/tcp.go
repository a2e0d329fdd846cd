package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"padres/internal/message"
)

// The TCP gateway bridges one broker's in-process Network to remote peers,
// turning the library into a multi-process deployment: remote brokers
// appear as proxy nodes whose handler writes to a socket, and inbound
// envelopes are injected as if they had arrived over an in-process link.
// Remote (stationary) clients connect the same way and receive their
// notifications over the socket.

// PeerKind labels a TCP connection's role in the handshake.
type PeerKind string

// Connection roles.
const (
	PeerBroker PeerKind = "broker"
	PeerClient PeerKind = "client"
)

// Hello is the first frame on every connection: it identifies the dialing
// node. A broker acceptor answers with its own hello. Incarnation, carried
// in the hello envelope's Epoch, is fixed when a gateway starts, so a peer
// that restarted is told apart from one that merely reconnected.
type Hello struct {
	Node        message.NodeID
	Kind        PeerKind
	Incarnation uint64
}

// BrokerPort is the interface the gateway needs from the local broker; the
// broker package's Broker satisfies it.
type BrokerPort interface {
	Inject(from message.NodeID, m message.Message)
	// InjectRemote is Inject carrying the remote sender's Lamport stamp, so
	// causal order in the journal survives the process boundary.
	InjectRemote(from message.NodeID, m message.Message, lamport uint64)
	AttachClient(n message.NodeID, deliver func(pub message.Publish))
	DetachClient(n message.NodeID)
}

// GatewayConfig configures a TCP gateway.
type GatewayConfig struct {
	// Net is the broker's in-process network (for peer proxy registration
	// and accounting).
	Net *Network
	// Local is the local broker's node ID.
	Local message.NodeID
	// Broker is the local broker the gateway feeds.
	Broker BrokerPort
	// Listen is the TCP listen address, e.g. ":7001".
	Listen string
	// IOTimeout bounds every socket write and every handshake read: a peer
	// that stalls past it fails the operation and is dropped instead of
	// wedging the sender forever. 0 disables deadlines (previous behavior).
	// Steady-state reads are not bounded — an idle peer is legal.
	IOTimeout time.Duration
	// OnPeerError, when set, is invoked with the peer and the error that
	// caused it to be dropped (write timeout, decode failure, handshake
	// violation). It runs on the goroutine that observed the failure and
	// must not block.
	OnPeerError func(node message.NodeID, err error)
	// Reliable runs a reliable session (session.go) per broker peer:
	// control-plane envelopes carry per-peer sequence numbers, wait in a
	// bounded resend queue until the remote's cumulative ack, and are
	// replayed on every new connection; the receive side releases them
	// exactly once and in order. The session outlives its connections. A
	// dialled peer whose connection fails is redialled with capped
	// exponential backoff (accepted peers are the remote side's to
	// redial), and a resend queue that overflows while the peer is away
	// trips the session's breaker, surfaced through
	// Network.SetLinkStateHandler until the peer next connects.
	Reliable bool
	// ReconnectBase and ReconnectCap bound the redial backoff
	// (defaults 50ms and 2s).
	ReconnectBase time.Duration
	ReconnectCap  time.Duration
}

// Gateway bridges the local broker to TCP peers.
type Gateway struct {
	cfg  GatewayConfig
	ln   net.Listener
	stop chan struct{} // closed on Close; cancels reconnect backoff sleeps
	inc  uint64        // this gateway's incarnation, sent in every hello

	mu     sync.Mutex
	peers  map[message.NodeID]*peerConn
	states map[message.NodeID]*peerState
	closed bool
	wg     sync.WaitGroup
}

// peerState is one broker peer's reliable session — local→peer send half,
// peer→local receive half — which outlives any single connection, plus
// what re-establishing it needs. The extra fields are guarded by the
// session's mu.
type peerState struct {
	session
	addr         string // dial address; "" for accepted peers (no reconnect)
	reconnecting bool
	inc          uint64 // the peer's incarnation from its last hello; 0 until known
}

type peerConn struct {
	node    message.NodeID
	kind    PeerKind
	conn    net.Conn
	enc     *message.Encoder
	timeout time.Duration
	mu      sync.Mutex
}

func (p *peerConn) write(env message.Envelope) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.timeout > 0 {
		if err := p.conn.SetWriteDeadline(time.Now().Add(p.timeout)); err != nil {
			return err
		}
	}
	if err := p.enc.Encode(env); err != nil {
		return fmt.Errorf("write to peer %s: %w", p.node, err)
	}
	return nil
}

// NewGateway starts listening and accepting connections.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("gateway listen: %w", err)
	}
	g := &Gateway{
		cfg:    cfg,
		ln:     ln,
		stop:   make(chan struct{}),
		inc:    uint64(time.Now().UnixNano()),
		peers:  make(map[message.NodeID]*peerConn),
		states: make(map[message.NodeID]*peerState),
	}
	g.wg.Add(1)
	go g.acceptLoop()
	return g, nil
}

// state returns (creating if needed) the persistent session state for a
// peer node.
func (g *Gateway) state(node message.NodeID) *peerState {
	g.mu.Lock()
	defer g.mu.Unlock()
	st, ok := g.states[node]
	if !ok {
		st = &peerState{}
		if g.cfg.Reliable {
			st.init(RetransmitOptions{}, g.cfg.Net.Clock(), g.cfg.Net.Telemetry().Link(string(g.cfg.Local), string(node)))
		}
		g.states[node] = st
	}
	return st
}

// Addr returns the gateway's bound address.
func (g *Gateway) Addr() string { return g.ln.Addr().String() }

// Close stops the listener and all peer connections.
func (g *Gateway) Close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	peers := make([]*peerConn, 0, len(g.peers))
	for _, p := range g.peers {
		peers = append(peers, p)
	}
	g.mu.Unlock()
	close(g.stop)
	_ = g.ln.Close()
	for _, p := range peers {
		_ = p.conn.Close()
	}
	g.wg.Wait()
}

// DialPeer connects to a remote broker gateway and installs it as an
// overlay neighbor proxy. The address is remembered so a reliable gateway
// can redial it after a failure.
func (g *Gateway) DialPeer(node message.NodeID, addr string) error {
	st := g.state(node)
	st.mu.Lock()
	st.addr = addr
	st.mu.Unlock()
	return g.dialAndInstall(node, addr)
}

// dialAndInstall performs the dial + hello handshake and wires the peer
// in; shared by DialPeer and the reconnect supervisor. The session resumes
// when the acceptor's hello arrives on the read loop.
func (g *Gateway) dialAndInstall(node message.NodeID, addr string) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("dial peer %s: %w", node, err)
	}
	p := &peerConn{node: node, kind: PeerBroker, conn: conn, enc: message.NewEncoder(conn), timeout: g.cfg.IOTimeout}
	if err := p.write(g.hello()); err != nil {
		_ = conn.Close()
		return fmt.Errorf("handshake with %s: %w", node, err)
	}
	g.installPeer(p)
	return nil
}

// hello is this gateway's broker handshake frame.
func (g *Gateway) hello() message.Envelope {
	return message.Envelope{From: g.cfg.Local, Msg: helloMsg(g.cfg.Local, PeerBroker), Epoch: g.inc}
}

// helloMsg encodes the handshake inside a MoveNegotiate frame so that no
// extra wire type is needed: the Tx field carries the kind and the Client
// field the node. It is consumed by the gateway layer and never reaches a
// broker.
func helloMsg(node message.NodeID, kind PeerKind) message.Message {
	return message.MoveNegotiate{MoveHeader: message.MoveHeader{
		Tx:     message.TxID("hello/" + string(kind)),
		Client: message.ClientID(node),
	}}
}

// ClientHello returns the handshake frame a remote client sends as its
// first envelope on a broker connection.
func ClientHello(node message.NodeID) message.Message {
	return helloMsg(node, PeerClient)
}

func parseHello(env message.Envelope) (Hello, bool) {
	nego, ok := env.Msg.(message.MoveNegotiate)
	if !ok {
		return Hello{}, false
	}
	h := Hello{Node: message.NodeID(nego.Client), Incarnation: env.Epoch}
	switch nego.Tx {
	case "hello/" + message.TxID(PeerBroker):
		h.Kind = PeerBroker
	case "hello/" + message.TxID(PeerClient):
		h.Kind = PeerClient
	default:
		return Hello{}, false
	}
	return h, true
}

func (g *Gateway) acceptLoop() {
	defer g.wg.Done()
	for {
		conn, err := g.ln.Accept()
		if err != nil {
			return // listener closed
		}
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			g.handleInbound(conn)
		}()
	}
}

func (g *Gateway) handleInbound(conn net.Conn) {
	// The handshake read is deadline-bounded: a dialer that connects and
	// then stalls must not pin this goroutine (and the connection) forever.
	if g.cfg.IOTimeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(g.cfg.IOTimeout))
	}
	dec := message.NewDecoder(conn)
	env, err := dec.Decode()
	if err != nil {
		g.peerError("", fmt.Errorf("handshake read: %w", err))
		_ = conn.Close()
		return
	}
	hello, ok := parseHello(env)
	if !ok {
		g.peerError("", errors.New("handshake: first frame is not a hello"))
		_ = conn.Close()
		return
	}
	// Steady-state reads are unbounded: idle peers are legal.
	_ = conn.SetReadDeadline(time.Time{})
	p := &peerConn{node: hello.Node, kind: hello.Kind, conn: conn, enc: message.NewEncoder(conn), timeout: g.cfg.IOTimeout}
	if hello.Kind == PeerBroker {
		// Answer first, so the dialer learns this incarnation before any
		// sequenced frame reaches it.
		if err := p.write(g.hello()); err != nil {
			g.peerError(p.node, err)
			_ = conn.Close()
			return
		}
	}
	g.installPeer(p)
	if err := g.resume(p, hello); err != nil {
		g.dropPeer(p, err)
		return
	}
	g.readLoop(p, dec)
}

// peerError surfaces a peer failure to the configured callback.
func (g *Gateway) peerError(node message.NodeID, err error) {
	if fn := g.cfg.OnPeerError; fn != nil && err != nil {
		fn(node, err)
	}
}

// installPeer wires a peer into the local network: a broker peer becomes
// the local network's proxy node for its ID, a client is attached to the
// local broker.
func (g *Gateway) installPeer(p *peerConn) {
	g.mu.Lock()
	if old, ok := g.peers[p.node]; ok {
		_ = old.conn.Close()
	}
	g.peers[p.node] = p
	g.mu.Unlock()

	switch p.kind {
	case PeerBroker:
		// Local sends to the peer's node ID are written to the socket. The
		// handler resolves the current connection at write time, so it
		// survives a reconnect replacing the peerConn underneath it.
		node := p.node
		g.cfg.Net.Register(node, func(env message.Envelope) {
			defer g.cfg.Net.Done(env.Msg)
			g.writeToPeer(node, env)
		})
		if !g.cfg.Net.HasLink(g.cfg.Local, p.node) {
			_ = g.cfg.Net.AddLink(g.cfg.Local, p.node, LinkOptions{CountTraffic: true})
		}
	case PeerClient:
		g.cfg.Broker.AttachClient(p.node, func(pub message.Publish) {
			if err := p.write(message.Envelope{From: g.cfg.Local, Msg: pub}); err != nil {
				g.dropPeer(p, err)
			}
		})
	}
}

// resume brings a reliable broker peer's session onto a connection once
// the peer's hello is in — on the accept side from the handshake, on the
// dial side from the acceptor's answer. A tripped breaker closes under a
// new epoch; a peer with a new incarnation restarted, so the session
// re-bases: the receive side starts over and the send side moves to a new
// epoch with its unacked queue renumbered from 1. Then the unacked queue
// is replayed. The connection is already installed, so a send racing the
// replay goes out directly; the peer's receive side resequences it, and
// absorbs frames it already holds.
func (g *Gateway) resume(p *peerConn, h Hello) error {
	if !g.cfg.Reliable || p.kind != PeerBroker {
		return nil
	}
	st := g.state(p.node)
	st.mu.Lock()
	st.rmu.Lock()
	healed := st.down
	rebase := h.Incarnation != 0 && st.inc != 0 && h.Incarnation != st.inc
	if h.Incarnation != 0 {
		st.inc = h.Incarnation
	}
	if healed || rebase {
		st.restartSendLocked()
	}
	if rebase {
		st.restartRecvLocked(0)
	}
	st.rmu.Unlock()
	replay := make([]message.Envelope, len(st.pend))
	for i := range st.pend {
		st.pend[i].attempts++
		replay[i] = st.pend[i].env
	}
	st.mu.Unlock()
	if healed {
		g.cfg.Net.linkUp(g.cfg.Local, p.node, st.lm)
	}
	g.cfg.Net.Telemetry().Retransmits.Add(int64(len(replay)))
	st.lm.Retransmits.Add(int64(len(replay)))
	for _, env := range replay {
		if err := p.write(env); err != nil {
			return fmt.Errorf("replay to peer %s: %w", p.node, err)
		}
	}
	return nil
}

// writeToPeer sequences (when reliable) and writes one envelope to the
// peer's current connection. With no live connection, sequenced frames
// wait in the resend queue for the next connection's replay; best-effort
// frames are dead-lettered.
func (g *Gateway) writeToPeer(node message.NodeID, env message.Envelope) {
	if g.cfg.Reliable && reliableKind(env.Msg.Kind()) && !g.stamp(node, &env) {
		return
	}
	g.mu.Lock()
	p := g.peers[node]
	g.mu.Unlock()
	if p == nil {
		if env.Seq == 0 {
			g.cfg.Net.Telemetry().DeadLetters.Inc()
		}
		return
	}
	if err := p.write(env); err != nil {
		g.dropPeer(p, err)
	}
}

// stamp puts a control-plane frame into the peer's session, or reports
// false and dead-letters it when the session refuses: the breaker is open,
// or the frame would overflow the resend queue, which trips the breaker
// first and drops the connection so the next one heals it.
func (g *Gateway) stamp(node message.NodeID, env *message.Envelope) bool {
	st := g.state(node)
	st.mu.Lock()
	if !st.down && len(st.pend) < st.opts.QueueLimit {
		st.stampLocked(env, st.clk.Now())
		st.lm.ResendDepth.Set(int64(len(st.pend)))
		st.mu.Unlock()
		return true
	}
	tripped := !st.down
	var lost []pendingMsg
	if tripped {
		// The receive half carries the other direction, so it says
		// nothing about delivery: every unacked frame counts as lost.
		lost, _, _ = st.tripLocked()
	}
	st.mu.Unlock()
	if tripped {
		g.cfg.Net.linkDown(g.cfg.Local, node, st.lm, len(lost))
		g.mu.Lock()
		p := g.peers[node]
		g.mu.Unlock()
		if p != nil {
			g.dropPeer(p, fmt.Errorf("peer %s: resend queue overflow: %w", node, ErrLinkDown))
		}
	}
	g.cfg.Net.Telemetry().DeadLetters.Inc()
	st.lm.DeadLetters.Inc()
	return false
}

// dropPeer removes a failed peer and surfaces the causing error, unless the
// gateway itself is shutting down (expected teardown errors stay quiet).
// Reliable gateways hand dialled broker peers to the reconnect supervisor.
func (g *Gateway) dropPeer(p *peerConn, err error) {
	g.mu.Lock()
	closed := g.closed
	if g.peers[p.node] == p {
		delete(g.peers, p.node)
	}
	g.mu.Unlock()
	if !closed {
		g.peerError(p.node, err)
	}
	_ = p.conn.Close()
	if p.kind == PeerClient {
		g.cfg.Broker.DetachClient(p.node)
	}
	if !closed && g.cfg.Reliable && p.kind == PeerBroker {
		g.superviseReconnect(p.node)
	}
}

// superviseReconnect spawns (once per peer) the redial loop: capped
// exponential backoff until the peer is re-established and its read loop
// restarted, or the gateway closes.
func (g *Gateway) superviseReconnect(node message.NodeID) {
	st := g.state(node)
	st.mu.Lock()
	if st.addr == "" || st.reconnecting {
		st.mu.Unlock()
		return
	}
	st.reconnecting = true
	st.mu.Unlock()
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		defer func() {
			st.mu.Lock()
			st.reconnecting = false
			st.mu.Unlock()
		}()
		base, cap := g.cfg.ReconnectBase, g.cfg.ReconnectCap
		if base <= 0 {
			base = 50 * time.Millisecond
		}
		if cap <= 0 {
			cap = 2 * time.Second
		}
		st.mu.Lock()
		addr := st.addr
		st.mu.Unlock()
		for backoff := base; ; {
			select {
			case <-g.stop:
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > cap {
				backoff = cap
			}
			// The restarted read loop resumes the session on the acceptor's hello.
			if g.dialAndInstall(node, addr) == nil && g.StartPeerReader(node) == nil {
				g.cfg.Net.Telemetry().Reconnects.Inc()
				return
			}
		}
	}()
}

// readLoop injects inbound envelopes into the local broker, consuming the
// gateway's own frames on the way: acks trim the session's resend queue, a
// hello resumes it, and sequenced envelopes pass through its receive half,
// which releases them exactly once and in order, and are acknowledged.
func (g *Gateway) readLoop(p *peerConn, dec *message.Decoder) {
	tel := g.cfg.Net.Telemetry()
	for {
		env, err := dec.Decode()
		if err != nil {
			g.dropPeer(p, fmt.Errorf("read from peer %s: %w", p.node, err))
			return
		}
		if ack, ok := env.Msg.(message.LinkAck); ok {
			g.state(p.node).ack(ack)
			continue
		}
		if h, ok := parseHello(env); ok {
			if err := g.resume(p, h); err != nil {
				g.dropPeer(p, err)
				return
			}
			continue
		}
		if env.Seq == 0 {
			// The remote sender is the last hop, regardless of what the
			// envelope claims.
			g.cfg.Broker.InjectRemote(p.node, env.Msg, env.Lamport)
			continue
		}
		v, drained, cum, epoch := g.state(p.node).receive(env)
		switch v {
		case rxDup, rxDupAhead:
			tel.DupesDropped.Inc()
		case rxInOrder:
			// Inject before acking: an ack that dies with the connection
			// only costs a replay, which the receive half absorbs.
			g.cfg.Broker.InjectRemote(p.node, env.Msg, env.Lamport)
			for _, e := range drained {
				g.cfg.Broker.InjectRemote(p.node, e.Msg, e.Lamport)
			}
		}
		tel.Acks.Inc()
		if err := p.write(message.Envelope{From: g.cfg.Local, Msg: message.LinkAck{Cum: cum, Epoch: epoch}}); err != nil {
			g.dropPeer(p, err)
			return
		}
	}
}

// StartPeerReader begins reading from a dialled peer connection. DialPeer
// callers invoke this once after the handshake.
func (g *Gateway) StartPeerReader(node message.NodeID) error {
	g.mu.Lock()
	p, ok := g.peers[node]
	g.mu.Unlock()
	if !ok {
		return errors.New("unknown peer " + string(node))
	}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		g.readLoop(p, message.NewDecoder(p.conn))
	}()
	return nil
}
