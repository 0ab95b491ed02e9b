// Command streamd runs the annotating media server of the paper's system
// model (Figure 1), serving the synthetic clip library over TCP. Clients
// negotiate a clip, quality level and device; the server replies with a
// compensated, annotated stream carrying all three side channels
// (luminance targets, decode cycles, scene bytes).
//
// Usage:
//
//	streamd [-addr 127.0.0.1:7400] [-proxy-of upstream:port]
//	        [-upstreams a:port,b:port] [-drain-timeout 15s]
//	        [-peers a:port,b:port] [-advertise host:port]
//	        [-debug-addr :7401] [-w 120 -h 90 -fps 10 -scale 0.25]
//	        [-max-sessions 0] [-workers N] [-cache-size MiB]
//	        [-store-dir /var/lib/streamd] [-store-size MiB]
//	        [-trace-dir /var/log/streamd] [-log-level info]
//	        [-faults latency=2ms,reset=65536,repeat,seed=7]
//	streamd -store-dir /var/lib/streamd -fsck
//
// With -proxy-of (or -upstreams, a comma-separated failover list) the
// process runs as the intermediary proxy node instead, pulling raw
// streams from the upstream servers — each guarded by a circuit breaker —
// and annotating on the fly. With -peers the node joins a sharded
// serving cluster: artifact ownership is rendezvous-hashed across self
// plus the peer list, local misses fill from the shard owner over the
// internal fetch-artifact RPC before falling back to local compute, and
// the same listener answers peer fetches. Both address lists are
// validated at startup — duplicates or the node's own listen address
// exit with status 2. With -debug-addr the process serves its
// telemetry over HTTP: /metrics (Prometheus text format, including Go
// runtime health), /healthz (liveness), /readyz (readiness — not-ready
// while draining or with every upstream breaker open), /debug/vars,
// /debug/pprof, /debug/spans and /debug/traces (completed trace trees
// as JSON, ?min=duration to filter). With -trace-dir every sampled
// trace span is additionally appended to a per-process JSONL file in
// that directory as it completes, so traces survive the process.
//
// Operational logging goes through the leveled key=value logger on
// stderr; -log-level sets the threshold (debug, info, warn, error).
//
// With -store-dir the process keeps a persistent, crash-safe artifact
// store (see internal/annstore) under the in-memory cache: annotation
// tracks, encoded variants and device level tables survive restarts, so
// a drained or crashed process comes back warm instead of recomputing
// the fleet's artifacts. -store-size bounds it (LRU eviction). With
// -fsck the process instead verifies every stored artifact end to end,
// quarantines anything corrupt, prints a report and exits — non-zero
// when corruption was found.
//
// With -faults every accepted connection is wrapped in the deterministic
// fault injector (see internal/faults): added latency, bandwidth
// throttling, fragmented writes, scheduled mid-stream resets and byte
// corruption — a live chaos mode for exercising client resilience. With
// -max-sessions the server admits up to the cap and queues a bounded
// number of further sessions briefly before shedding them with a clean
// over-capacity error that resilient clients back off and retry on.
//
// On SIGTERM/SIGINT the process drains: it stops accepting (and /readyz
// flips not-ready immediately), lets in-flight streams finish up to
// -drain-timeout, then force-closes whatever remains. A second signal
// forces immediately. Exit status is 0 for a clean drain, 1 if sessions
// had to be cut.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/annstore"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/video"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7400", "listen address")
	proxyOf := flag.String("proxy-of", "", "run as a proxy for this upstream server")
	upstreams := flag.String("upstreams", "", "run as a proxy for these comma-separated upstreams in failover order")
	peers := flag.String("peers", "", "join a sharded serving cluster with these comma-separated peer addresses (artifact ownership is rendezvous-hashed across self + peers)")
	advertise := flag.String("advertise", "", "address peers reach this node at (defaults to -addr)")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "max time to let in-flight sessions finish on SIGTERM/SIGINT")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /healthz, /readyz and /debug/pprof on this address")
	w := flag.Int("w", 120, "frame width")
	h := flag.Int("h", 90, "frame height")
	fps := flag.Int("fps", 10, "frames per second")
	scale := flag.Float64("scale", 0.25, "clip duration scale")
	maxSessions := flag.Int("max-sessions", 0, "max concurrent sessions (0 = unlimited)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "annotation pipeline workers (<=1 = sequential)")
	cacheSize := flag.Int64("cache-size", 256, "annotated-artifact cache budget in MiB (0 = unlimited)")
	storeDir := flag.String("store-dir", "", "persistent artifact store directory (empty = memory-only)")
	storeSize := flag.Int64("store-size", 1024, "persistent store byte budget in MiB (0 = unlimited)")
	fsck := flag.Bool("fsck", false, "verify the -store-dir store, quarantine corrupt entries, report and exit (non-zero on corruption)")
	faultSpec := flag.String("faults", "", "inject faults into accepted connections (e.g. latency=2ms,bw=65536,short,corrupt=0.001,reset=65536,repeat,seed=7)")
	traceDir := flag.String("trace-dir", "", "append completed trace spans as JSONL to a per-process file in this directory")
	logLevel := flag.String("log-level", "info", "log threshold (debug, info, warn, error)")
	flag.Parse()

	lvl, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "streamd:", err)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, lvl)

	if *fsck {
		if *storeDir == "" {
			fmt.Fprintln(os.Stderr, "streamd: -fsck requires -store-dir")
			os.Exit(2)
		}
		runFsck(*storeDir, *storeSize)
		return
	}

	stop := make(chan os.Signal, 2)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	var reg *obs.Registry
	if *debugAddr != "" || *traceDir != "" {
		reg = obs.NewRegistry()
	}
	if *debugAddr != "" {
		ds, err := obs.ServeDebug(*debugAddr, reg)
		exitOn(err)
		defer ds.Close()
		fmt.Printf("debug endpoint on http://%s/metrics\n", ds.Addr())
	}
	if *traceDir != "" {
		exitOn(os.MkdirAll(*traceDir, 0o755))
		tf, err := os.Create(filepath.Join(*traceDir,
			fmt.Sprintf("streamd-%d.traces.jsonl", os.Getpid())))
		exitOn(err)
		defer tf.Close()
		reg.SetTraceWriter(tf)
		logger.Info("trace_export", "path", tf.Name())
	}

	faultCfg, err := faults.ParseConfig(*faultSpec)
	exitOn(err)
	listen := func() (net.Listener, error) {
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			return nil, err
		}
		if faultCfg.Enabled() {
			logger.Warn("chaos_mode", "faults", faultCfg.String())
			ln = faults.WrapListener(ln, faultCfg)
		}
		return ln, nil
	}

	// drain runs the graceful-shutdown protocol shared by both roles:
	// stop accepting, let in-flight sessions finish within the drain
	// timeout, force-close on timeout or a second signal.
	drain := func(shutdown func(context.Context) error) {
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		go func() {
			<-stop // second signal: force immediately
			cancel()
		}()
		logger.Info("draining", "timeout", drainTimeout.String())
		if err := shutdown(ctx); err != nil {
			logger.Error("forced_shutdown", "err", err.Error())
			os.Exit(1)
		}
		logger.Info("drained")
	}

	// openStore opens the persistent artifact tier when -store-dir is
	// set; the Open-time scan quarantines anything a crash tore.
	openStore := func(role string) *annstore.Store {
		if *storeDir == "" {
			return nil
		}
		st, err := annstore.Open(*storeDir, annstore.Options{
			MaxBytes: *storeSize << 20,
			Logf:     logger.Printf,
		})
		exitOn(err)
		if reg != nil {
			st.SetObserver(reg, obs.L("role", role))
		}
		if rep := st.OpenReport(); rep.Quarantined > 0 || rep.Adopted > 0 {
			logger.Warn("store_recovery", "report", rep.String())
		}
		logger.Info("store_open", "dir", *storeDir,
			"artifacts", st.Len(), "bytes", st.Bytes())
		return st
	}

	// Address-list hygiene, before any socket opens: a node proxying to
	// itself or sharding to a double-weighted member is a config error,
	// not a runtime condition, so both lists fail fast with exit 2.
	selfAddr := *advertise
	if selfAddr == "" {
		selfAddr = *addr
	}
	upstreamList := *upstreams
	if upstreamList == "" {
		upstreamList = *proxyOf
	}
	var upstreamAddrs []string
	if upstreamList != "" {
		upstreamAddrs, err = cluster.ValidateMembers(*addr, strings.Split(upstreamList, ","))
		if err != nil {
			fmt.Fprintln(os.Stderr, "streamd: -upstreams:", err)
			os.Exit(2)
		}
		if len(upstreamAddrs) == 0 {
			fmt.Fprintln(os.Stderr, "streamd: -upstreams: no usable addresses")
			os.Exit(2)
		}
	}
	var cnode *cluster.Node
	if *peers != "" {
		cnode, err = cluster.New(cluster.Config{
			Self:       selfAddr,
			Peers:      strings.Split(*peers, ","),
			ProbeEvery: 500 * time.Millisecond,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "streamd: -peers:", err)
			os.Exit(2)
		}
		if *advertise == "" {
			// Routing hashes the advertised address; a wildcard listen
			// address is fine for the socket but meaningless to peers.
			if host, _, _ := net.SplitHostPort(selfAddr); host == "" || host == "0.0.0.0" || host == "::" {
				fmt.Fprintln(os.Stderr, "streamd: -peers with a wildcard -addr requires -advertise")
				os.Exit(2)
			}
		}
		logger.Info("cluster_join", "self", selfAddr,
			"peers", strings.Join(cnode.Members()[1:], ","))
	}

	if upstreamList != "" {
		p := stream.NewProxy(upstreamAddrs...)
		p.SetLogf(logger.Printf)
		p.SetCluster(cnode)
		p.SetAnnotateWorkers(*workers)
		p.SetCacheCapacity(*cacheSize << 20)
		if st := openStore("proxy"); st != nil {
			p.SetStore(st)
			defer st.Close()
		}
		p.SetObserver(reg)
		reg.RegisterReadiness("proxy", p.Ready)
		ln, err := listen()
		exitOn(err)
		p.Serve(ln)
		fmt.Printf("proxy listening on %s (upstreams %s)\n",
			ln.Addr(), strings.Join(p.UpstreamAddrs(), ","))
		<-stop
		drain(p.Shutdown)
		return
	}

	opt := video.LibraryOptions{W: *w, H: *h, FPS: *fps, DurationScale: *scale}
	catalog := map[string]core.Source{}
	for _, name := range video.ClipNames() {
		catalog[name] = core.ClipSource{Clip: video.ClipByName(name, opt)}
	}
	s := stream.NewServer(catalog)
	s.SetLogf(logger.Printf)
	s.SetCluster(cnode)
	s.SetAnnotateWorkers(*workers)
	s.SetCacheCapacity(*cacheSize << 20)
	if st := openStore("server"); st != nil {
		s.SetStore(st)
		defer st.Close()
	}
	s.SetObserver(reg)
	s.SetMaxSessions(*maxSessions)
	reg.RegisterReadiness("server", s.Ready)
	ln, err := listen()
	exitOn(err)
	s.Serve(ln)
	fmt.Printf("serving %d clips on %s\n", len(catalog), ln.Addr())
	for _, name := range video.ClipNames() {
		fmt.Printf("  %s\n", name)
	}
	<-stop
	drain(s.Shutdown)
}

// runFsck is the offline store-verification mode: open (the fast scan
// already quarantines torn entries), then fully verify every artifact.
// Exit status 1 means something was quarantined — by this run's scan or
// by the exhaustive pass.
func runFsck(dir string, sizeMiB int64) {
	st, err := annstore.Open(dir, annstore.Options{
		MaxBytes: sizeMiB << 20,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	exitOn(err)
	rep, err := st.Fsck()
	exitOn(err)
	if or := st.OpenReport(); or.Quarantined > 0 || or.Adopted > 0 || or.TmpRemoved > 0 {
		fmt.Printf("open scan: %s\n", or)
	}
	fmt.Printf("fsck: %s\n", rep)
	exitOn(st.Close())
	if st.Quarantined() > 0 {
		fmt.Fprintln(os.Stderr, "streamd: store corruption found (entries quarantined)")
		os.Exit(1)
	}
	fmt.Println("store is clean")
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "streamd:", err)
		os.Exit(1)
	}
}
