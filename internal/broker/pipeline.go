package broker

import (
	"sync"
	"sync/atomic"
	"time"

	"padres/internal/message"
	"padres/internal/telemetry"
)

// The parallel dispatch pipeline splits publication processing into three
// stages while provably preserving the per-source→per-link FIFO order the
// movement protocol's correctness arguments rely on (Sec. 4.4 keeps rc(adv)
// and rc(adv') consistent only under hop-by-hop ordering):
//
//	inbox ──► dispatcher ──► worker pool ──► committer ──► egress queues
//	            (serial)      (parallel        (serial,      (per-dest
//	                           matching)       re-orders)     FIFO)
//
//  1. The dispatcher pops the inbox in FIFO order. For every publication it
//     reserves a commit slot (a result channel pushed onto orderCh) BEFORE
//     handing the work to the pool, so commit order equals inbox order no
//     matter how the workers finish.
//  2. Workers run the expensive part — the simulated service time and the
//     matching pass against the snapshot-indexed routing tables — out of
//     order and in parallel.
//  3. The committer receives completed plans strictly in slot order and
//     appends each plan's outbound actions to per-destination egress
//     queues. Because commit order equals inbox order, the egress order
//     observed by any single destination is a subsequence of the inbox
//     order — exactly what the serial loop produces.
//  4. Each egress queue is drained by one flusher goroutine, which batches
//     consecutive forwards to its destination through transport.SendBatch
//     (one link-lock acquisition per batch) and invokes local client
//     deliveries inline.
//
// Control and routing-state messages never enter the pipeline: the
// dispatcher drains it fully (through egress) and then processes them
// inline, so routing-table mutations, 3PC steps, and reconfigurations are
// totally ordered with respect to every publication — the serialized
// control lane.
type pipeline struct {
	b       *Broker
	workCh  chan pubTicket
	orderCh chan chan *pubPlan

	// commitWait and egressFlush are the pipeline's stage timers,
	// registered on the broker's stage set when the pipeline starts (so a
	// serial broker never advertises stages it cannot observe).
	commitWait  *telemetry.Histogram
	egressFlush *telemetry.Histogram

	outMu       sync.Mutex
	outCond     *sync.Cond
	outstanding int // publications submitted but not fully egressed

	egMu   sync.Mutex
	queues map[message.NodeID]*egressQueue

	wg   sync.WaitGroup // workers + committer
	egWg sync.WaitGroup // egress flushers
}

// pubTicket is one publication handed to the worker pool, with the result
// channel that holds its reserved commit slot.
type pubTicket struct {
	env message.Envelope
	m   message.Publish
	res chan *pubPlan
}

// pubPlan is a matched publication ready for ordered egress.
type pubPlan struct {
	env     message.Envelope
	m       message.Publish
	actions []pubAction
	// matchedAt is when the worker finished matching; the committer derives
	// the in-order commit wait from it (zero when stage timing is off).
	matchedAt time.Time
	// remaining counts egress actions not yet performed; the final
	// decrement completes the message's accounting.
	remaining atomic.Int64
}

// pubAction is one outbound effect of a publication: a forward to a
// neighbor broker (deliver nil) or a delivery to a local client.
type pubAction struct {
	dest      message.NodeID
	deliver   ClientDeliver
	subClient message.ClientID
}

func newPipeline(b *Broker, workers int) *pipeline {
	p := &pipeline{
		b:       b,
		workCh:  make(chan pubTicket, workers),
		orderCh: make(chan chan *pubPlan, 2*workers),
		queues:  make(map[message.NodeID]*egressQueue),
	}
	p.commitWait = b.tel.Stages.Register(telemetry.StageCommitWait)
	p.egressFlush = b.tel.Stages.Register(telemetry.StageEgressFlush)
	b.tel.SetEgressSampler(p.egressDepths)
	p.outCond = sync.NewCond(&p.outMu)
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	p.wg.Add(1)
	go p.committer()
	return p
}

// submit hands one publication to the pipeline. Called only by the
// dispatcher; the orderCh send reserves the commit slot in inbox order
// before the work becomes visible to any worker.
func (p *pipeline) submit(env message.Envelope, m message.Publish) {
	p.outMu.Lock()
	p.outstanding++
	p.outMu.Unlock()
	res := make(chan *pubPlan, 1)
	p.orderCh <- res
	p.workCh <- pubTicket{env: env, m: m, res: res}
}

// drain blocks until every submitted publication has fully left the
// pipeline — matched, committed, and flushed through egress. The
// dispatcher calls it before processing any serialized message, making
// control traffic a total-order barrier.
func (p *pipeline) drain() {
	p.outMu.Lock()
	for p.outstanding > 0 {
		p.outCond.Wait()
	}
	p.outMu.Unlock()
}

// close drains the pipeline and stops all its goroutines. Called by the
// dispatcher on shutdown.
func (p *pipeline) close() {
	p.b.tel.SetEgressSampler(nil)
	p.drain()
	close(p.workCh)
	close(p.orderCh)
	p.wg.Wait()
	p.egMu.Lock()
	for _, q := range p.queues {
		q.stop()
	}
	p.egMu.Unlock()
	p.egWg.Wait()
}

// worker matches publications out of order. The simulated service time
// runs here, so with N workers up to N publications overlap their
// processing cost — the parallelism the serial loop cannot express.
func (p *pipeline) worker() {
	defer p.wg.Done()
	b := p.b
	for t := range p.workCh {
		if cost := b.serviceCost(t.m); cost > 0 {
			b.clk.Sleep(cost)
		}
		t0 := b.clk.Now()
		plan := &pubPlan{env: t.env, m: t.m, actions: b.planPublish(t.m, t.env.From)}
		t1 := b.clk.Now()
		b.tel.DispatchLatency.Observe(t1.Sub(t0))
		if b.tel.StageTimingEnabled() {
			plan.matchedAt = t1
		}
		t.res <- plan
	}
}

// committer consumes commit slots strictly in submission (= inbox) order
// and fans each plan's actions out to the per-destination egress queues.
func (p *pipeline) committer() {
	defer p.wg.Done()
	for res := range p.orderCh {
		plan := <-res
		if !plan.matchedAt.IsZero() {
			// Time spent matched but waiting for earlier inbox slots to
			// commit — the price of in-order egress.
			p.commitWait.Observe(p.b.clk.Since(plan.matchedAt))
		}
		if len(plan.actions) == 0 {
			p.finish(plan)
			continue
		}
		plan.remaining.Store(int64(len(plan.actions)))
		for i := range plan.actions {
			p.queueFor(plan.actions[i].dest).push(egressItem{plan: plan, action: &plan.actions[i]})
		}
	}
}

// finish completes one publication's accounting after its last egress
// action (or immediately when it matched nothing).
func (p *pipeline) finish(plan *pubPlan) {
	p.b.complete(plan.env.Msg)
	p.outMu.Lock()
	p.outstanding--
	if p.outstanding == 0 {
		p.outCond.Broadcast()
	}
	p.outMu.Unlock()
}

// queueFor returns the egress queue for a destination, creating its
// flusher on first use.
func (p *pipeline) queueFor(dest message.NodeID) *egressQueue {
	p.egMu.Lock()
	defer p.egMu.Unlock()
	q, ok := p.queues[dest]
	if !ok {
		q = newEgressQueue()
		p.queues[dest] = q
		p.egWg.Add(1)
		go p.flusher(dest, q)
	}
	return q
}

// egressItem is one pending egress action together with the plan it
// belongs to.
type egressItem struct {
	plan   *pubPlan
	action *pubAction
}

// egressQueue is the FIFO buffer in front of one destination.
type egressQueue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	items   []egressItem
	stopped bool
	// depth mirrors len(items) for the lock-free exposition sampler.
	depth atomic.Int64
}

func newEgressQueue() *egressQueue {
	q := &egressQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *egressQueue) push(it egressItem) {
	q.mu.Lock()
	q.items = append(q.items, it)
	q.depth.Store(int64(len(q.items)))
	q.cond.Signal()
	q.mu.Unlock()
}

func (q *egressQueue) stop() {
	q.mu.Lock()
	q.stopped = true
	q.cond.Signal()
	q.mu.Unlock()
}

// pop takes the whole pending batch, blocking until there is one. ok is
// false when the queue has stopped and holds nothing more.
func (q *egressQueue) pop() (batch []egressItem, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.stopped {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return nil, false
	}
	batch = q.items
	q.items = nil
	q.depth.Store(0)
	return batch, true
}

// egressDepths samples every destination queue's depth; installed as the
// broker metrics' egress sampler and called only at exposition time.
func (p *pipeline) egressDepths() map[string]int {
	p.egMu.Lock()
	defer p.egMu.Unlock()
	out := make(map[string]int, len(p.queues))
	for dest, q := range p.queues {
		out[string(dest)] = int(q.depth.Load())
	}
	return out
}

// flusher drains one destination's egress queue in FIFO order. Runs of
// consecutive forwards are sent as one transport batch; local deliveries
// run inline between them.
func (p *pipeline) flusher(dest message.NodeID, q *egressQueue) {
	defer p.egWg.Done()
	b := p.b
	var msgs []message.Message
	for {
		batch, ok := q.pop()
		if !ok {
			return
		}
		msgs = msgs[:0]
		flushSends := func() {
			if len(msgs) > 0 {
				if b.tel.StageTimingEnabled() {
					t0 := b.clk.Now()
					b.sendBatch(dest, msgs)
					p.egressFlush.Observe(b.clk.Since(t0))
				} else {
					b.sendBatch(dest, msgs)
				}
				msgs = msgs[:0]
			}
		}
		for _, it := range batch {
			if it.action.deliver == nil {
				msgs = append(msgs, it.plan.m)
			} else {
				flushSends()
				b.journalDeliver(it.plan.m, it.action.subClient, dest)
				it.action.deliver(it.plan.m)
			}
		}
		flushSends()
		// Completion strictly after the batch's sends are enqueued on the
		// links, so the registry's caused-before-done invariant holds.
		for _, it := range batch {
			if it.plan.remaining.Add(-1) == 0 {
				p.finish(it.plan)
			}
		}
	}
}
