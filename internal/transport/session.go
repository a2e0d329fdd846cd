package transport

import (
	"sync"
	"time"

	"padres/internal/message"
	"padres/internal/sim"
	"padres/internal/telemetry"
)

// The reliable session: the state of one reliable FIFO channel (the
// paper's Sec. 4.1 premise), run by two carriers — the in-process link
// (reliable.go) and the TCP gateway (tcp.go), which own accounting,
// timers, ack pacing and the wire. The send half stamps control-plane
// frames with the next sequence number of the current epoch and queues
// them until a cumulative ack of that epoch covers them; overflowing
// QueueLimit trips the breaker until a restart opens a new epoch. The
// receive half drops duplicates and older epochs, starts over on a newer
// one, and releases frames strictly in order, acking only the contiguous
// point so an ack never trims a frame that was skipped over.

// RetransmitOptions tunes a reliable link's ack/retransmit layer.
type RetransmitOptions struct {
	// Base is the first retransmission delay (default 20ms); attempt k
	// waits Base<<k, jittered, up to Cap.
	Base time.Duration
	// Cap bounds the per-attempt backoff (default 400ms).
	Cap time.Duration
	// MaxAttempts is the number of retransmissions of one entry before the
	// circuit breaker opens (default 12).
	MaxAttempts int
	// QueueLimit bounds the resend queue; overflow opens the breaker
	// (default 1024).
	QueueLimit int
}

func (o RetransmitOptions) withDefaults() RetransmitOptions {
	if o.Base <= 0 {
		o.Base = 20 * time.Millisecond
	}
	if o.Cap <= 0 {
		o.Cap = 400 * time.Millisecond
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 12
	}
	if o.QueueLimit <= 0 {
		o.QueueLimit = 1024
	}
	return o
}

// reliableKind reports whether the kind rides the reliable session.
// Publications stay best-effort (the client stub's duplicate suppression
// and the movement buffers cover them end to end); acks are the session's
// own frames.
func reliableKind(k message.Kind) bool {
	return k != message.KindPublish && k != message.KindLinkAck
}

// pendingMsg is one unacknowledged resend-queue entry. attempts counts
// retransmissions (timer resends and reconnect replays); sentAt is the
// first send, for the RTT sample. nextAt is the in-process pacer's
// deadline, stamped lazily by the pacer rather than per send.
type pendingMsg struct {
	env      message.Envelope
	attempts int
	nextAt   time.Time
	sentAt   time.Time
}

// session holds a channel's send and receive halves. On an in-process link
// both belong to one direction; in the gateway the send half carries
// local→peer traffic and the receive half peer→local. The halves run on
// different goroutines and share no hot state, so each has its own mutex.
// down is read under either lock; writers hold BOTH, mu before rmu.
type session struct {
	opts RetransmitOptions
	clk  sim.Clock
	lm   *telemetry.LinkMetrics // the send half's instruments

	mu      sync.Mutex // send half
	nextSeq uint64
	pend    []pendingMsg // ascending seq
	epoch   uint64       // stamped on every frame

	rmu    sync.Mutex // receive half
	cum    uint64     // highest sequence released in order
	oo     map[uint64]message.Envelope
	rEpoch uint64 // epoch of the stream being received

	down bool
}

func (s *session) init(opts RetransmitOptions, clk sim.Clock, lm *telemetry.LinkMetrics) {
	s.opts, s.clk, s.lm = opts.withDefaults(), clk, lm
}

// stampLocked gives env the next sequence number of the current epoch and
// parks a copy in the resend queue. Caller holds mu and has checked down
// and QueueLimit.
func (s *session) stampLocked(env *message.Envelope, sentAt time.Time) {
	s.nextSeq++
	env.Seq, env.Epoch = s.nextSeq, s.epoch
	s.pend = append(s.pend, pendingMsg{env: *env, sentAt: sentAt})
}

// tripLocked opens the breaker and detaches the resend queue and the
// receive half's resequencing buffer, with the cumulative point they are
// judged against. Caller holds mu (rmu is acquired internally, preserving
// the lock order) and settles the detached state after unlocking.
func (s *session) tripLocked() (pend []pendingMsg, oo map[uint64]message.Envelope, cum uint64) {
	pend = s.pend
	s.pend = nil
	s.rmu.Lock()
	s.down = true
	oo, cum = s.oo, s.cum
	s.oo = nil
	s.rmu.Unlock()
	return pend, oo, cum
}

// restartSendLocked closes the breaker under a new epoch. The unacked
// queue (empty after a trip) is renumbered from 1, so the receiver, seeing
// the higher epoch, starts its stream over and accepts it. Caller holds mu
// and rmu.
func (s *session) restartSendLocked() {
	s.down = false
	s.epoch++
	for i := range s.pend {
		s.pend[i].env.Seq, s.pend[i].env.Epoch = uint64(i+1), s.epoch
	}
	s.nextSeq = uint64(len(s.pend))
	s.lm.ResendDepth.Set(int64(len(s.pend)))
}

// restartRecvLocked starts the receive half over at epoch and returns the
// discarded resequencing buffer. Caller holds rmu.
func (s *session) restartRecvLocked(epoch uint64) map[uint64]message.Envelope {
	oo := s.oo
	s.cum, s.rEpoch, s.oo = 0, epoch, nil
	return oo
}

// ack trims the resend queue up to a cumulative ack of the current epoch;
// acks of another epoch are ignored. A pure trim under mu, so overlapping
// acks are safe.
func (s *session) ack(a message.LinkAck) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if a.Epoch != s.epoch {
		return
	}
	i := 0
	for i < len(s.pend) && s.pend[i].env.Seq <= a.Cum {
		i++
	}
	if i == 0 {
		return
	}
	// RTT of the trimmed entries, but only the ones never retransmitted:
	// after a retransmission the ack could answer either copy, so the
	// sample would be ambiguous (Karn's rule).
	now := s.clk.Now()
	for k := 0; k < i; k++ {
		if p := &s.pend[k]; p.attempts == 0 && !p.sentAt.IsZero() {
			s.lm.RTT.Observe(now.Sub(p.sentAt))
		}
	}
	if i == len(s.pend) {
		// The ack covered everything pending — the usual loss-free case.
		// Keep the backing array: the next appends overwrite the slots.
		s.pend = s.pend[:0]
	} else {
		// Partial cover: trim by copying down in place, so the queue
		// settles at a steady-state capacity instead of reallocating.
		rem := copy(s.pend, s.pend[i:])
		for k := rem; k < len(s.pend); k++ {
			s.pend[k] = pendingMsg{} // release acked message references
		}
		s.pend = s.pend[:rem]
	}
	s.lm.ResendDepth.Set(int64(len(s.pend)))
}

// rxVerdict classifies one sequenced frame at the receive half.
type rxVerdict uint8

const (
	rxStale    rxVerdict = iota // breaker open or an older epoch: discard
	rxDup                       // at or below the cumulative point: discard, re-ack
	rxDupAhead                  // duplicate of a buffered frame: discard
	rxBuffered                  // beyond a gap: held until the gap fills
	rxInOrder                   // released, followed by the drained run
)

// receive runs the receive half for one sequenced frame. For rxInOrder the
// frame itself is next in the stream, and drained holds the buffered
// frames it released, in order (nil on the common gap-free path). cum and
// epoch are the ack point after the frame.
func (s *session) receive(env message.Envelope) (v rxVerdict, drained []message.Envelope, cum, epoch uint64) {
	s.rmu.Lock()
	defer s.rmu.Unlock()
	switch {
	case s.down || env.Epoch < s.rEpoch:
		v = rxStale
	case env.Epoch > s.rEpoch:
		// The sender restarted under a new epoch: its numbering began
		// again at 1. Only a gateway peer gets here; an in-process link
		// restarts both halves together.
		s.restartRecvLocked(env.Epoch)
		fallthrough
	default:
		v, drained = s.sequenceLocked(env)
	}
	return v, drained, s.cum, s.rEpoch
}

// sequenceLocked places a current-epoch frame in the stream. Caller holds
// rmu.
func (s *session) sequenceLocked(env message.Envelope) (rxVerdict, []message.Envelope) {
	if env.Seq <= s.cum {
		return rxDup, nil
	}
	if env.Seq != s.cum+1 {
		if _, dup := s.oo[env.Seq]; dup {
			return rxDupAhead, nil
		}
		if s.oo == nil {
			s.oo = make(map[uint64]message.Envelope)
		}
		s.oo[env.Seq] = env
		return rxBuffered, nil
	}
	s.cum++
	var drained []message.Envelope
	for len(s.oo) > 0 {
		next, ok := s.oo[s.cum+1]
		if !ok {
			break
		}
		delete(s.oo, s.cum+1)
		s.cum++
		drained = append(drained, next)
	}
	return rxInOrder, drained
}

// ackPoint returns the receive half's cumulative ack, or ok=false while
// the breaker is open.
func (s *session) ackPoint() (cum, epoch uint64, ok bool) {
	s.rmu.Lock()
	defer s.rmu.Unlock()
	return s.cum, s.rEpoch, !s.down
}

// linkDown reports a tripped session: lost frames to the dead-letter
// counters, the breaker gauges, and the link-state observer. Never called
// with a transport lock held.
func (n *Network) linkDown(from, to message.NodeID, lm *telemetry.LinkMetrics, lost int) {
	n.tel.DeadLetters.Add(int64(lost))
	lm.DeadLetters.Add(int64(lost))
	lm.Up.Set(0)
	lm.ResendDepth.Set(0)
	n.tel.LinksDown.Inc()
	n.notifyLinkState(from, to, false)
}

// linkUp reports a restarted session's closed breaker.
func (n *Network) linkUp(from, to message.NodeID, lm *telemetry.LinkMetrics) {
	lm.Up.Set(1)
	n.tel.LinksDown.Dec()
	n.notifyLinkState(from, to, true)
}
