package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"padres/internal/audit"
	"padres/internal/client"
	"padres/internal/cluster"
	"padres/internal/core"
	"padres/internal/journal"
	"padres/internal/message"
	"padres/internal/overlay"
	"padres/internal/replication"
	"padres/internal/sim"
	"padres/internal/sim/scenario"
	"padres/internal/transport"
)

// sim-catastrophe: the scripted catastrophe (publication storms,
// thundering move herds, rolling partitions, coordinator kills) on a
// seeded random-tree fleet, run by scenario.Run entirely in virtual time on
// one goroutine. The simulator's event loop, preference lists, the journal,
// the canonical record hash and the auditor do the work; wall-clock waits
// do none, and the virtual move latencies are exact per seed.

type simSize struct {
	brokers int
	setups  int
}

func simSizes(tiny bool) simSize {
	if tiny {
		return simSize{brokers: 48, setups: 2}
	}
	return simSize{brokers: 1000, setups: 3}
}

func runSim(cfg config) (*outcome, error) {
	sz := simSizes(cfg.tiny)
	out := &outcome{m: make(metrics)}
	rnd := sim.NewRand(cfg.seed)
	top, err := overlay.RandomTree(sz.brokers, rnd.Derive("topology"))
	if err != nil {
		return nil, err
	}

	// Set-up is building the fleet the scenario runs on — the overlay,
	// every broker, container and link under a virtual clock — which
	// scenario.Run repeats internally before its first event.
	var setups []float64
	for k := 0; k < sz.setups; k++ {
		t0 := time.Now()
		if err := buildFleet(cfg.seed, sz.brokers); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, since(t0))
		runtime.GC()
	}
	out.m.set("setup_s", median(setups), "s")

	gc := startGC()
	t0 := time.Now()
	res, err := scenario.Run(scenario.Options{Seed: cfg.seed, Brokers: sz.brokers})
	if err != nil {
		return nil, err
	}
	wall := since(t0)
	gc.report(out.m)

	checkScenario(out, res)
	lat := vmoveLatencies(res.Journal)
	if len(lat) == 0 {
		return nil, errors.New("no move committed")
	}
	p50, p95 := quantile(lat, 0.50), quantile(lat, 0.95)
	eps := float64(res.Events) / wall
	out.m.set("sim_events_per_s", eps, "1/s")
	out.m.set("vmove_p50_ms", p50, "ms")
	out.m.set("vmove_p95_ms", p95, "ms")
	out.m.set("latency_p50_ms", p50, "ms")
	out.m.set("throughput_per_s", eps, "1/s")

	if cfg.trace {
		// Every traced figure is read from the journal or timed after
		// scenario.Run returns, so nothing is traced inside the timed run.
		out.m.set("bench.trace_overhead_pct", 0, "%")
		out.m.set("sim.events", float64(res.Events), "count")
		out.m.set("journal.records", float64(res.Records), "count")
		out.m.set("journal.dropped", float64(res.Dropped), "count")
		// Audit sorts in place, so hash and audit each get a fresh copy.
		cp := append([]journal.Record(nil), res.Journal...)
		t := time.Now()
		scenario.HashRecords(cp)
		hashS := since(t)
		copy(cp, res.Journal)
		t = time.Now()
		audit.Audit(cp)
		auditS := since(t)
		out.m.set("sim.hash_s", hashS, "s")
		out.m.set("audit.s", auditS, "s")
		out.m.set("sim.loop_s", wall-hashS-auditS, "s")
		out.m.set("replication.prefs_us", timePrefs(top, res.Journal), "us")
		out.m.set("transport.msgs_per_move", linkSendsPerMove(res), "count")
	}
	return out, nil
}

// buildFleet constructs, starts and stops the scenario's deployment.
func buildFleet(seed int64, brokers int) error {
	rnd := sim.NewRand(seed)
	top, err := overlay.RandomTree(brokers, rnd.Derive("topology"))
	if err != nil {
		return err
	}
	vc := sim.NewVirtualClock(time.Unix(1_000_000_000, 0).UTC())
	cl, err := cluster.New(cluster.Options{
		Topology:      top,
		Profile:       transport.DefaultPlanetLab(rnd.Derive("links")),
		Protocol:      core.ProtocolReconfig,
		MoveTimeout:   5 * time.Second,
		Clock:         vc,
		ReliableLinks: true,
		Replication:   &replication.Config{Enabled: true},
	})
	if err != nil {
		return err
	}
	cl.Start()
	cl.Stop()
	return nil
}

// checkScenario applies the run's correctness checks: the auditor must find
// none of the paper's properties violated (exactly-once delivery, 3PC phase
// order, atomicity, routing convergence), every move must resolve, and the
// journal must be complete. Aborts are legal outcomes of a catastrophe —
// the non-blocking 3PC aborts what partitions and kills orphan — and a herd
// drawing a client already moving is refused (client.ErrMoving while the
// source still hosts it, core.ErrNotHosted inside the pipelined commit's
// window); both are reported, not failed. Any other refusal fails.
func checkScenario(out *outcome, res *scenario.Result) {
	var refused, aborted, failed int64
	for _, mv := range res.Moves {
		switch {
		case !mv.Resolved:
			failed++
			out.problem("move of %s %s->%s unresolved", mv.Client, mv.From, mv.Target)
		case !mv.Requested && (errors.Is(mv.Err, client.ErrMoving) || errors.Is(mv.Err, core.ErrNotHosted)):
			refused++
		case !mv.Requested:
			failed++
			out.problem("move of %s %s->%s refused: %v", mv.Client, mv.From, mv.Target, mv.Err)
		case mv.Err != nil:
			aborted++
		}
	}
	out.attempted = int64(res.MovesRequested)
	out.failed = failed
	fmt.Printf("moves: %d requested, %d committed, %d refused (client mid-move), %d aborted, %d failed\n",
		res.MovesRequested, res.Committed, refused, aborted, failed)
	out.m.set("sim.moves_refused", float64(refused), "count")
	out.m.set("sim.moves_aborted", float64(aborted), "count")
	if !res.Clean() {
		for _, v := range res.Report.Violations() {
			out.problem("audit: %s", v)
		}
		out.failed += int64(len(res.Report.Violations()))
	}
	if res.Dropped > 0 {
		out.problem("journal dropped %d records; the audit saw incomplete evidence", res.Dropped)
	}
}

// vmoveLatencies returns the virtual latency, in ms, of every committed
// move: from its move-requested record to the client's arrival at the
// target, both stamped in virtual time.
func vmoveLatencies(recs []journal.Record) []float64 {
	start := make(map[string]time.Time)
	arrive := make(map[string]time.Time)
	for _, r := range recs {
		if r.Tx == "" {
			continue
		}
		switch r.Kind {
		case core.EventMoveRequested.String():
			start[r.Tx] = r.Wall
		case journal.KindClientArrive:
			if _, seen := arrive[r.Tx]; !seen {
				arrive[r.Tx] = r.Wall
			}
		}
	}
	var out []float64
	for tx, end := range arrive {
		if s, ok := start[tx]; ok {
			out = append(out, ms(end.Sub(s)))
		}
	}
	return out
}

// timePrefs times replication.PreferenceList from outside on the seed's
// overlay for every move the run requested, returning the median in µs.
func timePrefs(top *overlay.Topology, recs []journal.Record) float64 {
	universe := top.Brokers()
	adj := make(map[message.BrokerID][]message.BrokerID, len(universe))
	for _, b := range universe {
		adj[b] = top.Neighbors(b)
	}
	var per []float64
	for _, r := range recs {
		if r.Kind != core.EventMoveRequested.String() || r.Detail == "" {
			continue
		}
		t0 := time.Now()
		replication.PreferenceList(message.TxID(r.Tx), message.BrokerID(r.Site), message.BrokerID(r.Detail), universe, adj, 3)
		per = append(per, us(time.Since(t0)))
	}
	return quantile(per, 0.5)
}

// linkSendsPerMove is the journal's link-send count over the moves
// requested: the run's whole message overhead per movement.
func linkSendsPerMove(res *scenario.Result) float64 {
	var sends int64
	for _, r := range res.Journal {
		if r.Kind == journal.KindLinkSend {
			sends++
		}
	}
	if res.MovesRequested == 0 {
		return 0
	}
	return float64(sends) / float64(res.MovesRequested)
}
