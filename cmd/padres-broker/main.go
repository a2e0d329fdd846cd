// Command padres-broker runs one content-based pub/sub broker as a
// standalone process, connected to its overlay neighbors over TCP.
//
// Every broker in the deployment is given the same -topology edge list so
// it can compute its neighbors and next-hop routes; it dials the peers
// listed in -peers (typically its already-running neighbors) and accepts
// connections from the rest, as well as from remote clients
// (padres-client).
//
//	padres-broker -id b1 -listen :7001 -topology b1-b2,b2-b3
//	padres-broker -id b2 -listen :7002 -topology b1-b2,b2-b3 -peers b1=localhost:7001
//	padres-broker -id b3 -listen :7003 -topology b1-b2,b2-b3 -peers b2=localhost:7002
//
// With -metrics-addr the broker additionally serves an observability
// endpoint: Prometheus metrics at /metrics, liveness at /healthz,
// hop-by-hop message traces at /traces, flight-recorder records at
// /journal with a live chunked-JSONL tail at /journal/stream (when
// -journal is set; the tail resumes from a ?after= Lamport cursor and
// feeds the padres-mon -audit fleet auditor), and the Go profiler under
// /debug/pprof/.
// With -profile-dir it also captures periodic CPU/heap/mutex/goroutine
// pprof bundles with bounded retention (continuous profiling), so load
// investigations start from profiles taken while the problem happened.
//
// Remote clients are stationary: transactional mobility applies to clients
// hosted in a broker's mobile container (see the examples and the padres
// package API).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"padres/internal/broker"
	"padres/internal/journal"
	"padres/internal/message"
	"padres/internal/metrics"
	"padres/internal/overlay"
	"padres/internal/telemetry"
	"padres/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "padres-broker:", err)
		os.Exit(1)
	}
}

func run(args []string) error { return runUntil(args, nil) }

// runUntil is run's testable core: the broker serves until stop is closed
// (nil installs the usual SIGINT/SIGTERM handler). Shutdown is ordered so
// every durable sink flushes: the gateway stops feeding the broker, the
// broker drains and closes its write-ahead log, then the journal sink and
// the rest close (deferred in reverse).
func runUntil(args []string, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("padres-broker", flag.ContinueOnError)
	var (
		id       = fs.String("id", "", "broker ID, e.g. b1 (required)")
		listen   = fs.String("listen", ":7001", "TCP listen address")
		topoSpec = fs.String("topology", "", "overlay edge list, e.g. b1-b2,b2-b3 (required)")
		peerSpec = fs.String("peers", "", "peers to dial: b2=host:port,b3=host:port")
		covering = fs.Bool("covering", false, "enable the covering optimization")
		service  = fs.Duration("service", 0, "simulated per-message processing cost")
		statsSec = fs.Duration("stats", 30*time.Second, "traffic stats reporting interval (0 disables)")
		metAddr  = fs.String("metrics-addr", "", "HTTP observability listen address, e.g. :9090 (empty disables)")
		jnlSpec  = fs.String("journal", "", "flight-recorder output: a JSONL path, or 'mem' for the /journal endpoint only")
		dataDir  = fs.String("data-dir", "", "durable state directory: write-ahead log + snapshots; restart recovers from it (empty = in-memory only)")
		reliable = fs.Bool("reliable", true, "ack/retransmit and auto-reconnect on broker peer links (a restarted peer is redialled and unacked frames replayed)")
		snapEach = fs.Int("snapshot-every", 0, "checkpoint cadence in WAL records (0 = default, negative disables)")
		logSpec  = fs.String("log", "info", "log levels: default[,component=level...], e.g. info,broker=debug")
		profDir  = fs.String("profile-dir", "", "continuous profiling output directory: periodic CPU/heap/mutex/goroutine pprof bundles (empty disables)")
		profIval = fs.Duration("profile-interval", 30*time.Second, "continuous profiling capture cadence")
		profCPU  = fs.Duration("profile-cpu", 5*time.Second, "CPU profile window per capture (clamped below the interval)")
		profKeep = fs.Int("profile-keep", 16, "profile bundles retained before the oldest is deleted")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" || *topoSpec == "" {
		return fmt.Errorf("-id and -topology are required")
	}
	if err := telemetry.ConfigureLogLevels(*logSpec); err != nil {
		return err
	}
	log := telemetry.Logger("padres-broker")

	top, err := parseTopology(*topoSpec)
	if err != nil {
		return err
	}
	self := message.BrokerID(*id)
	if !top.HasBroker(self) {
		return fmt.Errorf("broker %s is not in the topology", self)
	}
	hops, err := top.NextHops(self)
	if err != nil {
		return err
	}

	reg := metrics.NewRegistry()
	net := transport.NewNetwork(reg)
	defer net.Close()

	var jnl *journal.Journal
	if *jnlSpec != "" {
		jnl = journal.New(0)
		if *jnlSpec != "mem" {
			// Sink before BeginRun so the run-config record reaches the
			// JSONL file, not just the ring.
			if err := jnl.SinkTo(*jnlSpec); err != nil {
				return fmt.Errorf("journal: %w", err)
			}
			// Registered before the broker's Stop so it runs after it:
			// the broker's shutdown records reach the file.
			defer func() {
				if err := jnl.CloseSink(); err != nil {
					log.Warn("journal close", "err", err)
				}
			}()
		}
		jnl.BeginRun(fmt.Sprintf("standalone broker=%s covering=%t", self, *covering))
		net.SetJournal(jnl)
	}

	b, err := broker.New(broker.Config{
		ID:            self,
		Net:           net,
		Neighbors:     top.Neighbors(self),
		NextHops:      hops,
		Covering:      *covering,
		ServiceTime:   *service,
		DataDir:       *dataDir,
		SnapshotEvery: *snapEach,
	})
	if err != nil {
		return err
	}
	if st := b.DurableStore(); st != nil {
		rec := st.Recovery()
		log.Info("durable store recovered", "dir", st.Dir(), "gen", rec.Gen,
			"snapshot", rec.SnapshotLoaded, "wal_records", rec.WALRecords,
			"truncated_bytes", rec.TruncatedBytes, "took", rec.Duration)
	}
	b.Start()
	defer b.Stop()
	// A tripped TCP session reaches the broker's metrics and the journal;
	// every reliable session here is one of this broker's.
	net.SetLinkStateHandler(broker.LinkStateHandler(net, func(message.BrokerID) *broker.Broker { return b }))

	tel := buildTelemetry(self, b, net, reg)
	tel.RegisterStore(self, b.StoreMetrics())
	tel.SetJournal(jnl)
	if *profDir != "" {
		prof, err := telemetry.StartProfiler(telemetry.ProfileOptions{
			Dir:        *profDir,
			Interval:   *profIval,
			CPUSeconds: int(*profCPU / time.Second),
			MaxBundles: *profKeep,
		})
		if err != nil {
			return fmt.Errorf("profiler: %w", err)
		}
		defer prof.Stop()
		log.Info("continuous profiling", "dir", *profDir, "interval", *profIval, "keep", *profKeep)
	}
	if *metAddr != "" {
		srv, err := tel.Serve(*metAddr)
		if err != nil {
			return fmt.Errorf("metrics endpoint: %w", err)
		}
		defer srv.Close()
		log.Info("observability endpoint up", "addr", srv.Addr())
	}

	gw, err := transport.NewGateway(transport.GatewayConfig{
		Net:      net,
		Local:    self.Node(),
		Broker:   b,
		Listen:   *listen,
		Reliable: *reliable,
		OnPeerError: func(node message.NodeID, err error) {
			log.Warn("peer link error", "peer", string(node), "err", err)
		},
	})
	if err != nil {
		return err
	}
	defer gw.Close()
	log.Info("broker listening",
		"broker", string(self), "addr", gw.Addr(),
		"covering", *covering, "neighbors", fmt.Sprint(top.Neighbors(self)))

	if *peerSpec != "" {
		for _, p := range strings.Split(*peerSpec, ",") {
			name, addr, ok := strings.Cut(strings.TrimSpace(p), "=")
			if !ok {
				return fmt.Errorf("bad peer spec %q (want id=host:port)", p)
			}
			node := message.NodeID(name)
			if err := gw.DialPeer(node, addr); err != nil {
				return err
			}
			if err := gw.StartPeerReader(node); err != nil {
				return err
			}
			log.Info("connected to peer", "peer", name, "addr", addr)
		}
	}

	if *statsSec > 0 {
		go func() {
			ticker := time.NewTicker(*statsSec)
			defer ticker.Stop()
			for range ticker.C {
				fmt.Println(statusLine(self, b, reg))
			}
		}()
	}

	if stop != nil {
		<-stop
	} else {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
	}
	log.Info("shutting down", "broker", string(self))
	return nil
}

// buildTelemetry wires the broker's runtime metrics, the transport's hop
// tracer, and the link-traffic matrix into one exposition registry.
func buildTelemetry(self message.BrokerID, b *broker.Broker, net *transport.Network, reg *metrics.Registry) *telemetry.Registry {
	tel := telemetry.NewRegistry()
	tel.RegisterBroker(self, b.Metrics())
	tel.RegisterTransport(net.Telemetry())
	net.SetTracer(tel.Traces())
	tel.AddExposition(func(w io.Writer) {
		links := reg.LinkSnapshot()
		if len(links) == 0 {
			return
		}
		fmt.Fprintln(w, "# HELP padres_link_messages_total Messages sent per directed overlay link.")
		fmt.Fprintln(w, "# TYPE padres_link_messages_total counter")
		for _, l := range links {
			fmt.Fprintf(w, "padres_link_messages_total{from=%q,to=%q} %d\n", l.From, l.To, l.Count)
		}
	})
	return tel
}

// statusLine renders the periodic status report from one broker-stats
// snapshot; link traffic is listed in deterministic order.
func statusLine(self message.BrokerID, b *broker.Broker, reg *metrics.Registry) string {
	st := b.Stats()
	var sb strings.Builder
	fmt.Fprintf(&sb, "[%s] srt=%d prt=%d queue=%d (hi=%d) processed=%d dropped=%d traffic=%d",
		self, st.SRTSize, st.PRTSize, st.QueueDepth, st.QueueHighWater,
		st.Processed, st.DroppedPublications, reg.TotalMessages())
	for _, l := range reg.LinkSnapshot() {
		fmt.Fprintf(&sb, " %s->%s=%d", l.From, l.To, l.Count)
	}
	return sb.String()
}

func parseTopology(spec string) (*overlay.Topology, error) {
	top := overlay.New()
	add := func(id message.BrokerID) {
		if !top.HasBroker(id) {
			_ = top.AddBroker(id)
		}
	}
	for _, edge := range strings.Split(spec, ",") {
		a, b, ok := strings.Cut(strings.TrimSpace(edge), "-")
		if !ok || a == "" || b == "" {
			return nil, fmt.Errorf("bad edge %q (want a-b)", edge)
		}
		ba, bb := message.BrokerID(a), message.BrokerID(b)
		add(ba)
		add(bb)
		if err := top.Connect(ba, bb); err != nil {
			return nil, fmt.Errorf("edge %q: %w", edge, err)
		}
	}
	if err := top.Validate(); err != nil {
		return nil, err
	}
	return top, nil
}
