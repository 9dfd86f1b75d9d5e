// Command snmpfpd is the fingerprint store daemon: it ingests scan
// campaigns — recorded NDJSON files or live scans of the simulated
// Internet — into an append-only observation store and serves fingerprint
// queries over an HTTP JSON API while ingest continues.
//
// Replay recorded campaigns and serve:
//
//	snmpfpd -ingest scan1.ndjson,scan2.ndjson -listen :8161
//
// Run live campaigns against the simulated Internet while serving:
//
//	snmpfpd -sim -sim-seed 7 -sim-campaigns 4 -listen :8161
//
// Self-contained smoke test (ingest a simulated world, query /v1/stats,
// /v1/vendors and /v1/metrics over HTTP, print all three, exit):
//
//	snmpfpd -sim -smoke
//
// Endpoints: /v1/ip/{addr}, /v1/device/{engineID}, /v1/vendors,
// /v1/reboots/{addr}, /v1/fusion, /v1/stats, /v1/metrics; plus
// /debug/pprof/ with -pprof.
//
// Simulated ingest also runs the non-SNMP probe modules listed in
// -sim-protocols after each campaign and stores their alias evidence, so
// /v1/fusion has cross-protocol input to fuse.
//
// One obs.Registry spans the whole daemon — scanner, netsim faults, store
// and HTTP server all publish into it — so /v1/metrics is the single pane
// of glass over a live ingest.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"snmpv3fp/internal/core"
	"snmpv3fp/internal/netsim"
	"snmpv3fp/internal/obs"
	"snmpv3fp/internal/probe"
	"snmpv3fp/internal/records"
	"snmpv3fp/internal/scanner"
	"snmpv3fp/internal/serve"
	"snmpv3fp/internal/store"
)

func main() {
	listen := flag.String("listen", ":8161", "HTTP listen address")
	ingest := flag.String("ingest", "", "comma-separated NDJSON campaign files, ingested in order")
	sim := flag.Bool("sim", false, "ingest live scan campaigns of the simulated Internet")
	simSeed := flag.Int64("sim-seed", 7, "simulated world seed")
	simCampaigns := flag.Int("sim-campaigns", 2, "number of simulated campaigns to run")
	simProtocols := flag.String("sim-protocols", "snmpv3,icmp-ts,ntp", "probe modules run per simulated campaign (non-SNMP ones ingest fusion evidence)")
	rate := flag.Int("rate", 50000, "simulated scan probe rate (packets per second)")
	workers := flag.Int("workers", 4, "simulated scan send workers")
	flushThreshold := flag.Int("flush", 4096, "memtable samples per segment flush")
	dataDir := flag.String("data-dir", "", "durable store directory (WAL + segments); empty keeps the store in memory")
	verify := flag.Bool("verify", false, "checksum and decode every segment sample on open (recovery is lazy by default: indexes are validated, sample blocks on first touch)")
	replListen := flag.String("replicate-listen", "", "TCP address to ship sealed segments to read replicas from (requires -data-dir)")
	replicaOf := flag.String("replica-of", "", "run as a read replica of the primary at this replication address: no ingest, serves the shipped state (requires -data-dir)")
	smoke := flag.Bool("smoke", false, "ingest, self-query /v1/stats, /v1/vendors and /v1/metrics, print, exit")
	pprofFlag := flag.Bool("pprof", false, "also serve net/http/pprof under /debug/pprof/")
	flag.Parse()

	if *replicaOf != "" {
		if *dataDir == "" {
			fmt.Fprintln(os.Stderr, "snmpfpd: -replica-of requires -data-dir")
			os.Exit(2)
		}
		if *ingest != "" || *sim {
			fmt.Fprintln(os.Stderr, "snmpfpd: a replica cannot ingest; drop -ingest/-sim")
			os.Exit(2)
		}
		runReplica(*replicaOf, *dataDir, *listen, *verify, *pprofFlag)
		return
	}
	if *replListen != "" && *dataDir == "" {
		fmt.Fprintln(os.Stderr, "snmpfpd: -replicate-listen requires -data-dir (only sealed segments ship)")
		os.Exit(2)
	}
	if *ingest == "" && !*sim {
		fmt.Fprintln(os.Stderr, "snmpfpd: need -ingest, -sim or -replica-of")
		os.Exit(2)
	}

	// One registry for the whole daemon: the store, the HTTP server and
	// every simulated campaign publish into it.
	reg := obs.NewRegistry()
	st, err := store.Open(store.Options{Dir: *dataDir, FlushThreshold: *flushThreshold, Obs: reg, VerifyOnOpen: *verify})
	if err != nil {
		fatal(err)
	}
	if *dataDir != "" {
		fmt.Fprintf(os.Stderr, "snmpfpd: durable store in %s (%d samples on open)\n",
			*dataDir, st.Snapshot().Stats().Ingested)
	}
	if *replListen != "" {
		rln, err := net.Listen("tcp", *replListen)
		if err != nil {
			fatal(err)
		}
		go func() {
			if err := st.ServeReplication(rln); err != nil {
				fmt.Fprintf(os.Stderr, "snmpfpd: replication listener: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "snmpfpd: shipping segments to replicas on %s\n", rln.Addr())
	}
	// Close seals the memtable and fsyncs the final manifest; on the
	// SIGINT/SIGTERM path below it runs before exit, so a clean shutdown
	// never drops buffered samples.
	defer closeStore(st)
	srv := serve.New(st, serve.WithObs(reg))
	var handler http.Handler = srv
	if *pprofFlag {
		root := http.NewServeMux()
		root.HandleFunc("/debug/pprof/", pprof.Index)
		root.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		root.HandleFunc("/debug/pprof/profile", pprof.Profile)
		root.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		root.HandleFunc("/debug/pprof/trace", pprof.Trace)
		root.Handle("/", srv)
		handler = root
	}

	// Cancelling this context (SIGINT/SIGTERM) drains scan workers and
	// aborts ingest before the HTTP server shuts down.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	addr := *listen
	if *smoke {
		addr = "127.0.0.1:0" // ephemeral; the daemon queries itself
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	hs := &http.Server{Handler: handler}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "snmpfpd: serving on http://%s\n", ln.Addr())

	// Ingest runs concurrently with serving; queries observe campaigns as
	// they land.
	ingestDone := make(chan error, 1)
	go func() {
		ingestDone <- runIngest(ctx, st, reg, *ingest, *sim, *simSeed, *simCampaigns, *rate, *workers, splitList(*simProtocols))
	}()

	if *smoke {
		if err := <-ingestDone; err != nil {
			fatal(err)
		}
		base := "http://" + ln.Addr().String()
		for _, path := range []string{"/v1/stats", "/v1/vendors", "/v1/fusion", "/v1/metrics"} {
			body, err := httpGet(base + path)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("GET %s\n%s", path, body)
		}
		shutdown(hs)
		return
	}

	select {
	case err := <-ingestDone:
		if err != nil && ctx.Err() == nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "snmpfpd: ingest complete; serving until interrupted")
		<-ctx.Done()
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "snmpfpd: interrupted; shutting down")
	case err := <-serveErr:
		fatal(err)
	}
	shutdown(hs)
}

// runReplica is the -replica-of mode: open (or create) the replica
// directory, follow the primary's replication stream with reconnect
// backoff, and serve the same read-only HTTP API over the shipped state.
func runReplica(primary, dataDir, listen string, verify, pprofFlag bool) {
	reg := obs.NewRegistry()
	r, err := store.OpenReplica(store.ReplicaOptions{Dir: dataDir, Obs: reg, VerifyOnOpen: verify})
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := r.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "snmpfpd: replica close: %v\n", err)
		}
	}()
	fmt.Fprintf(os.Stderr, "snmpfpd: replica of %s in %s (%d samples on open)\n",
		primary, dataDir, r.Snapshot().Stats().Ingested)

	srv := serve.New(r, serve.WithObs(reg))
	var handler http.Handler = srv
	if pprofFlag {
		root := http.NewServeMux()
		root.HandleFunc("/debug/pprof/", pprof.Index)
		root.Handle("/", srv)
		handler = root
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		fatal(err)
	}
	hs := &http.Server{Handler: handler}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "snmpfpd: replica serving on http://%s\n", ln.Addr())

	syncErr := make(chan error, 1)
	go func() { syncErr <- r.SyncLoop(ctx, primary) }()

	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "snmpfpd: interrupted; shutting down")
	case err := <-syncErr:
		if err != nil && ctx.Err() == nil {
			fmt.Fprintf(os.Stderr, "snmpfpd: replica sync: %v\n", err)
		}
	case err := <-serveErr:
		fatal(err)
	}
	shutdown(hs)
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// runIngest feeds the store: NDJSON files first, then simulated campaigns.
func runIngest(ctx context.Context, st *store.Store, reg *obs.Registry, ingest string, sim bool, simSeed int64, simCampaigns, rate, workers int, protocols []string) error {
	if ingest != "" {
		for _, name := range strings.Split(ingest, ",") {
			name = strings.TrimSpace(name)
			c, err := readCampaignFile(name)
			if err != nil {
				return err
			}
			n, err := st.Ingest(ctx, c)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "snmpfpd: campaign %d: %d IPs from %s\n", n, len(c.ByIP), name)
		}
	}
	if sim {
		if err := runSim(ctx, st, reg, simSeed, simCampaigns, rate, workers, protocols); err != nil {
			return err
		}
	}
	return nil
}

func readCampaignFile(name string) (*core.Campaign, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return records.ReadCampaign(f)
}

// runSim scans the simulated Internet repeatedly — campaign i on day
// 15 + 6·(i-1), matching the paper's scan cadence — ingesting each campaign
// as it completes. Non-SNMP protocols then re-sweep the same targets from
// the same campaign base time, storing their alias evidence alongside the
// SNMPv3 samples (the SNMPv3 campaign itself stays byte-identical: the
// evidence sweeps neither advance the scan epoch nor touch derived state).
func runSim(ctx context.Context, st *store.Store, reg *obs.Registry, simSeed int64, campaigns, rate, workers int, protocols []string) error {
	w := netsim.Generate(netsim.TinyConfig(simSeed))
	w.RegisterMetrics(reg)
	for i := 1; i <= campaigns; i++ {
		day := 15 + 6*(i-1)
		base := w.Cfg.StartTime.Add(time.Duration(day) * 24 * time.Hour)
		w.Clock.Set(base)
		w.BeginScan()
		targets, err := scanner.NewPrefixSpace(w.ScanPrefixes4(), simSeed+int64(i))
		if err != nil {
			return err
		}
		cfg := scanner.Config{
			Rate: rate, Batch: 256, Clock: w.Clock, Seed: simSeed + int64(i), Workers: workers,
			Obs: reg,
		}
		res, err := scanner.ScanContext(ctx, w.NewTransport(), targets, cfg)
		if err != nil {
			return err
		}
		c := core.Collect(res)
		n, err := st.Ingest(ctx, c)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "snmpfpd: campaign %d: %d IPs from sim day %d\n", n, len(c.ByIP), day)
		for _, name := range protocols {
			if name == "snmpv3" {
				continue
			}
			m, err := probe.Get(name)
			if err != nil {
				return err
			}
			w.Clock.Set(base)
			pres, err := scanner.ScanProbe(ctx, w.NewTransport(), targets, cfg, scanner.ProbeSpec{
				Payload: m.AppendProbe(nil, cfg.Seed), Ident: m.Ident(cfg.Seed),
			})
			if err != nil {
				return err
			}
			pc := probe.Collect(m, pres)
			if err := st.IngestEvidence(ctx, name, store.EvidenceFromCampaign(pc)); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "snmpfpd: campaign %d: %d %s evidence IPs\n", n, len(pc.ByIP), name)
		}
	}
	return nil
}

func httpGet(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, body)
	}
	return body, nil
}

// closeStore seals the store on shutdown; a failed seal means buffered
// samples may not have reached a segment, which the operator must hear
// about.
func closeStore(st *store.Store) {
	if err := st.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "snmpfpd: store close: %v\n", err)
	}
}

func shutdown(hs *http.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = hs.Shutdown(ctx)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "snmpfpd: %v\n", err)
	os.Exit(1)
}
