package transport

import (
	"sync/atomic"
	"time"

	"padres/internal/message"
	"padres/internal/sim"
	"padres/internal/telemetry"
)

// The in-process carrier of the reliable session (session.go): each
// direction of a Reliable link runs one session, and a per-link timer
// chain retransmits overdue entries with jittered exponential backoff. An
// entry that exhausts MaxAttempts trips the breaker as overflow does;
// further sends fail fast with ErrLinkDown until Heal restarts the link.
//
// In-flight accounting uses two tokens per reliable message: one for each
// physical wire copy (released on delivery, drop, or dedup) and one
// at-least-once token for the resend-queue entry. The second token keeps
// metrics.AwaitQuiescent honest under loss: the network is not quiescent
// while a frame the receiver has never seen might still be retransmitted.
// It is released the first time the receiver accepts the frame (receive-
// side dedup makes "first" well-defined) — not when the ack arrives — so
// quiescence never waits out an ack coalescing window; a frame that is
// never accepted has its token released when the breaker dead-letters it.
// Acks themselves are pure retransmission pacing, invisible to the
// registry.

// relState wraps one link direction's session — both halves belong to
// this direction — with the retransmit pacer and ack coalescing.
type relState struct {
	session
	rng *lockedRand // backoff jitter

	// timer (under mu) is the armed retransmit pacer, nil while idle;
	// senders skip arming while it is set — the firing timer recomputes
	// every deadline, including newly appended entries'. closed (under mu)
	// is set by shutdown, after which the pacer never re-arms.
	timer  sim.Timer
	closed bool

	// ackDue is set while a coalescing ack timer is armed. ackDelay is the
	// window: in-order deliveries arm one timer and the cumulative ack
	// covers everything that arrived inside it. Kept a small fraction of
	// Base so a delayed ack can never be mistaken for loss by the sender's
	// retransmit timer. ackDue lives outside rmu: flushAck clears it before
	// reading cum, so a race can arm a spare flush but never lose an ack.
	ackDue   atomic.Bool
	ackDelay time.Duration
}

func newRelState(opts RetransmitOptions, seed int64, clk sim.Clock, lm *telemetry.LinkMetrics) *relState {
	r := &relState{rng: newLockedRand(seed)}
	r.init(opts, clk, lm)
	r.ackDelay = r.opts.Base / 8
	if r.ackDelay > 500*time.Microsecond {
		r.ackDelay = 500 * time.Microsecond
	}
	if r.ackDelay <= 0 {
		r.ackDelay = 50 * time.Microsecond
	}
	return r
}

// backoff returns the jittered delay before retransmission attempt k
// (k=0 is the initial send): half the exponential step fixed, half random,
// so synchronized links do not retransmit in lockstep.
func (r *relState) backoff(attempt int) time.Duration {
	d := r.opts.Base << uint(attempt)
	if d > r.opts.Cap || d <= 0 {
		d = r.opts.Cap
	}
	return d/2 + time.Duration(r.rng.Int63n(int64(d/2)+1))
}

// shutdown stops the retransmit pacer for good and releases the
// accounting of everything still pending or buffered. Pending entries the
// receiver already accepted carry no token (it was released at first
// accept), so only never-accepted entries and buffered frames release
// here.
func (r *relState) shutdown(n *Network) {
	r.mu.Lock()
	r.closed = true
	if r.timer != nil {
		r.timer.Stop()
		r.timer = nil
	}
	pend := r.pend
	r.pend = nil
	r.rmu.Lock()
	oo := r.oo
	r.oo = nil
	cum := r.cum
	r.rmu.Unlock()
	r.mu.Unlock()
	for _, p := range undelivered(pend, cum, oo) {
		n.reg.MsgDone(p.env.Msg)
	}
	for _, env := range oo {
		n.reg.MsgDone(env.Msg)
	}
}

// undelivered filters a detached resend queue down to the entries the
// receiver never accepted: those are the ones still holding their
// at-least-once token (and the only ones it is honest to call lost).
// Accepted entries — covered by cum or sitting in the out-of-order buffer
// — released their token at first accept; only the ack trimming them out
// of the queue was still outstanding. Filters in place: the caller owns
// the detached slice.
func undelivered(pend []pendingMsg, cum uint64, oo map[uint64]message.Envelope) []pendingMsg {
	lost := pend[:0]
	for _, p := range pend {
		if p.env.Seq <= cum {
			continue
		}
		if _, buffered := oo[p.env.Seq]; buffered {
			continue
		}
		lost = append(lost, p)
	}
	return lost
}

// tripLocked opens the breaker and returns what it strands: the resend
// entries the receiver never accepted — the genuinely lost frames, whose
// tokens and dead-letter counts finishTrip settles — and the resequencing
// buffer. Caller holds r.mu and passes the result to finishTrip after
// unlocking.
func (r *relState) tripLocked() ([]pendingMsg, map[uint64]message.Envelope) {
	pend, oo, cum := r.session.tripLocked()
	return undelivered(pend, cum, oo), oo
}

// finishTrip drains a tripped link's queues to the dead-letter counter and
// surfaces the breaker transition. Never called with a transport lock
// held.
func (n *Network) finishTrip(l *link, pend []pendingMsg, oo map[uint64]message.Envelope) {
	for _, p := range pend {
		n.reg.MsgDone(p.env.Msg) // at-least-once token of a never-accepted frame
	}
	for _, env := range oo {
		n.reg.MsgDone(env.Msg) // wire token of a buffered frame
	}
	n.linkDown(l.from, l.to, l.rel.lm, len(pend)+len(oo))
}

// resetBreaker closes an open breaker: both halves of the direction restart
// under a new epoch, and in-flight frames of the old one are discarded by
// their epoch stamp.
func (n *Network) resetBreaker(l *link) {
	r := l.rel
	if r == nil {
		return
	}
	r.mu.Lock()
	r.rmu.Lock()
	if !r.down {
		r.rmu.Unlock()
		r.mu.Unlock()
		return
	}
	r.restartSendLocked()
	oo := r.restartRecvLocked(r.epoch)
	r.rmu.Unlock()
	r.mu.Unlock()
	for _, env := range oo {
		n.reg.MsgDone(env.Msg)
	}
	n.linkUp(l.from, l.to, r.lm)
	l.armRetransmit()
}

// sendReliable stamps the message into the session's resend queue and puts
// the first wire copy on the link.
func (n *Network) sendReliable(l *link, msg message.Message) error {
	r := l.rel
	// Bookkeeping runs before taking r.mu so journaling and traffic
	// counting never serialize against the link's receive side. Two tokens
	// in one registry operation: the wire copy, and the at-least-once
	// token released at the receiver's first accept or at dead-letter —
	// keeps quiescence detection honest under loss.
	env := n.prepareSend(l, l.from, l.to, msg, 2)
	sentAt := n.clk.Now()
	r.mu.Lock()
	if r.down || len(r.pend) >= r.opts.QueueLimit {
		n.refuseAndUnlock(l)
		return n.deadLetterPrepared(l, []message.Message{msg})
	}
	r.stampLocked(&env, sentAt)
	r.lm.ResendDepth.Set(int64(len(r.pend)))
	// Arm the pacer only when it is idle: an armed timer recomputes every
	// deadline (including this entry's) when it fires, and after a full ack
	// it is at most one backoff period out. Skipping the arm otherwise
	// keeps the loss-free fast path free of per-send timer churn; the worst
	// case is a first retransmit delayed by up to one extra backoff period,
	// which only matters when loss is already present.
	wake := len(r.pend) == 1 && r.timer == nil
	r.mu.Unlock()
	if wake {
		l.armRetransmit()
	}
	l.enqueue(env, true)
	return nil
}

// sendReliableBatch is the batched sendReliable used by the broker's
// egress flushers: the whole run takes its tokens, its sequence numbers,
// and its consecutive FIFO slots under one acquisition of each lock, so a
// reliable link costs the batching sender the same lock traffic as a
// best-effort one.
func (n *Network) sendReliableBatch(l *link, msgs []message.Message) error {
	r := l.rel
	envs := make([]message.Envelope, len(msgs))
	for i, msg := range msgs {
		envs[i] = n.prepareSend(l, l.from, l.to, msg, 2)
	}
	sentAt := n.clk.Now()
	r.mu.Lock()
	if r.down || len(r.pend)+len(msgs) > r.opts.QueueLimit {
		n.refuseAndUnlock(l)
		return n.deadLetterPrepared(l, msgs)
	}
	wake := len(r.pend) == 0 && r.timer == nil
	for i := range envs {
		r.stampLocked(&envs[i], sentAt)
	}
	r.lm.ResendDepth.Set(int64(len(r.pend)))
	r.mu.Unlock()
	if wake {
		l.armRetransmit()
	}
	l.enqueueBatch(envs)
	return nil
}

// refuseAndUnlock releases r.mu after a send the session cannot take. A
// closed breaker means the send would overflow the resend queue: the
// breaker trips first.
func (n *Network) refuseAndUnlock(l *link) {
	r := l.rel
	if r.down {
		r.mu.Unlock()
		return
	}
	pend, oo := r.tripLocked()
	r.mu.Unlock()
	n.finishTrip(l, pend, oo)
}

// deadLetterPrepared releases both tokens of every already-prepared
// message the session refused, counts the dead letters, and reports the
// failure.
func (n *Network) deadLetterPrepared(l *link, msgs []message.Message) error {
	both := make([]message.Message, 0, 2*len(msgs))
	for _, m := range msgs {
		both = append(both, m, m)
	}
	n.reg.MsgDoneBatch(both)
	n.tel.DeadLetters.Add(int64(len(msgs)))
	l.rel.lm.DeadLetters.Add(int64(len(msgs)))
	return ErrLinkDown
}

// deliverReliable runs one sequenced frame through the session's receive
// half and settles the carrier's side: tokens, dedup counts, the
// coalesced ack, and in-order handoff.
func (n *Network) deliverReliable(l *link, env message.Envelope) {
	r := l.rel
	v, drained, cum, epoch := r.receive(env)
	switch v {
	case rxStale:
		// Dead link, or a frame that was in flight across a breaker reset:
		// its sequence numbering no longer matches the stream.
		n.reg.MsgDone(env.Msg)
	case rxDup:
		// Injected, or retransmitted after the ack was lost: re-ack so the
		// sender stops resending.
		n.tel.DupesDropped.Inc()
		n.reg.MsgDone(env.Msg)
		n.sendAck(l, cum, epoch)
	case rxDupAhead:
		n.tel.DupesDropped.Inc()
		n.reg.MsgDone(env.Msg)
	case rxBuffered:
		// The wire token stays held by the buffered frame; the at-least-once
		// token is released — buffering is an accept, and any still-missing
		// earlier frame holds its own token, so quiescence stays guarded.
		n.reg.MsgDone(env.Msg)
	case rxInOrder:
		// Coalesce the ack: the first in-order arrival of a burst arms a
		// short timer and the single cumulative ack it sends covers every
		// frame that lands inside the window.
		if !r.ackDue.Swap(true) {
			n.clk.AfterFunc(r.ackDelay, func() { n.flushAck(l) })
		}
		// Only this frame still holds its at-least-once token; the drained
		// buffered frames released theirs when they were accepted.
		n.reg.MsgDone(env.Msg)
		n.deliverDirect(l.to, env, true)
		for _, e := range drained {
			n.deliverDirect(l.to, e, true)
		}
	}
}

// flushAck fires when a coalescing window closes: it acknowledges the
// current cumulative delivery point. A flush that races a breaker trip or
// shutdown is dropped harmlessly (a stopped reverse link discards the
// frame).
func (n *Network) flushAck(l *link) {
	l.rel.ackDue.Store(false)
	if cum, epoch, ok := l.rel.ackPoint(); ok {
		n.sendAck(l, cum, epoch)
	}
}

// sendAck delivers a cumulative acknowledgement for traffic on l to the
// sender's resend queue. Acks are uncounted, unjournaled frames — the
// protocol's own plumbing, invisible to the paper's traffic metrics. They
// still respect the reverse link's partition state and drop probability (a
// lost ack just means one more retransmission and dedup round), but a
// surviving ack is applied synchronously instead of crossing the reverse
// link's delivery queue: cumulative acks are idempotent and carry no
// ordering relation to data frames, so the queue hop would cost a goroutine
// wake per ack window without changing any outcome.
func (n *Network) sendAck(l *link, cum uint64, epoch uint64) {
	n.mu.Lock()
	rev := n.links[linkID{l.to, l.from}]
	n.mu.Unlock()
	if rev == nil || !rev.admitAck() {
		return
	}
	n.tel.Acks.Inc()
	n.handleAck(rev, message.LinkAck{Cum: cum, Epoch: epoch})
}

// handleAck trims the forward link's resend queue; l is the link the ack
// arrived on (the reverse direction). Acks carry no in-flight accounting —
// the at-least-once token was released at the receiver's first accept.
//
// The retransmit pacer is deliberately not re-armed here: after a trim its
// armed timer just fires at the now-acked entry's old deadline, finds
// nothing due, and goes back to sleep. One spurious wake per retransmit
// period is far cheaper than a forced wake per ack window.
func (n *Network) handleAck(l *link, ack message.LinkAck) {
	n.mu.Lock()
	fwd := n.links[linkID{l.to, l.from}]
	n.mu.Unlock()
	if fwd != nil && fwd.rel != nil {
		fwd.rel.ack(ack)
	}
}

// armRetransmit is the link's retransmit pacer, in real and simulated time
// alike: stamp the deadlines the send path left zero, arm one timer on the
// network clock at the earliest, and have the firing resend what is due and
// re-arm while entries remain. The clock makes it a time.AfterFunc in real
// time and a loop event in scheduled mode. The timer is published under mu
// before a firing can observe it, so a sender that sees it set may skip
// arming: the firing recomputes every deadline.
func (l *link) armRetransmit() {
	r := l.rel
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.down || len(r.pend) == 0 || r.timer != nil {
		return
	}
	now := l.net.clk.Now()
	var next time.Time
	for i := range r.pend {
		p := &r.pend[i]
		if p.nextAt.IsZero() {
			p.nextAt = now.Add(r.backoff(0))
		}
		if next.IsZero() || p.nextAt.Before(next) {
			next = p.nextAt
		}
	}
	r.timer = l.net.clk.AfterFunc(next.Sub(now), func() {
		r.mu.Lock()
		r.timer = nil
		r.mu.Unlock()
		l.resendDue()
		l.armRetransmit()
	})
}

// resendDue retransmits every overdue pending entry, advancing its backoff
// — or trips the breaker if one has exhausted its attempts.
func (l *link) resendDue() {
	r := l.rel
	n := l.net
	now := n.clk.Now()
	var copies []message.Envelope
	r.mu.Lock()
	if r.closed || r.down {
		r.mu.Unlock()
		return
	}
	for i := range r.pend {
		p := &r.pend[i]
		if p.nextAt.IsZero() {
			// Appended since the pacer last stamped deadlines: not due yet.
			p.nextAt = now.Add(r.backoff(0))
			continue
		}
		if p.nextAt.After(now) {
			continue
		}
		p.attempts++
		if p.attempts > r.opts.MaxAttempts {
			pend, oo := r.tripLocked()
			r.mu.Unlock()
			n.finishTrip(l, pend, oo)
			return
		}
		p.nextAt = now.Add(r.backoff(p.attempts))
		copies = append(copies, p.env)
	}
	// Counted under mu, so nothing is counted once shutdown has returned.
	n.tel.Retransmits.Add(int64(len(copies)))
	r.lm.Retransmits.Add(int64(len(copies)))
	r.mu.Unlock()
	for _, env := range copies {
		n.reg.MsgEnqueued(env.Msg) // wire token for the fresh copy
		l.enqueue(env, true)
	}
}
