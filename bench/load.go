package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/stream"
)

// options is one benchmark run's configuration.
type options struct {
	seed    int64
	seconds float64 // timed phase, split into rounds
	trace   bool
	rounds  int
	setups  int // set-ups timed for setup_s; the last one is kept
	// quota, when positive, ends each round after this many sessions
	// instead of after its share of seconds (the self-test's scale).
	quota int
	// workers is how many sessions pre-warm and the reference plays run
	// at once.
	workers  int
	workDir  string
	spansOut string
	log      io.Writer
	// refHook, when set, sees every reference stream's per-frame
	// digests before sessions are checked against them (tests corrupt
	// one to prove a wrong frame fails the run).
	refHook func(clip string, rung int, digests []uint64)
}

func (o options) logf(format string, args ...any) {
	if o.log != nil {
		fmt.Fprintf(o.log, format+"\n", args...)
	}
}

// roundStat is one round of the timed phase; ok counts its completed
// sessions.
type roundStat struct {
	ok        int
	wall, cpu time.Duration
	alloc     uint64
	gcs       uint32
}

// phase is everything one setup-and-measure pass leaves behind.
type phase struct {
	wl     *workload
	cat    *catalog
	fl     *fleet
	tr     *tracer
	setups []time.Duration
	rounds []roundStat
	// recs are the timed sessions in index order; untraced phases drop
	// them once summarized.
	recs      []*sessionRec
	summary   summary
	heapLive  uint64
	exhausted bool
	// Per-layer inputs captured at the phase's edges (traced only).
	regBefore, regAfter []map[string]float64
	rendersBefore       map[string]int64
	rendersAfter        map[string]int64
	goroutinesPeak      int
}

// summary is what the end-to-end metrics and the result keep of the
// timed sessions.
type summary struct {
	attempted, failed int
	// ttffMs is each completed session's time to first frame.
	ttffMs []float64
	// saved and baseline total the completed sessions' ledgers, folded
	// in session order.
	saved, baseline float64
	// population fingerprints the sessions played, in order.
	population uint64
}

// summarize reduces verified session records; a session fails when it
// errors or delivers any wrong frame.
func summarize(recs []*sessionRec) summary {
	s := summary{population: fnvOffset}
	for _, r := range recs {
		s.attempted++
		if r.err != nil || r.wrong {
			s.failed++
		}
		if r.err == nil {
			s.ttffMs = append(s.ttffMs, ms(r.ttff))
			s.saved += r.saved
			s.baseline += r.baseline
		}
		for _, b := range []byte(fmt.Sprintf("%s/%d/%s/%t/%d;", r.clip, r.rung, r.device, r.adaptive, r.peer)) {
			s.population = (s.population ^ uint64(b)) * fnvPrime
		}
	}
	return s
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure sets the workload up opt.setups times (keeping the last
// fleet), runs the timed rounds against it, and verifies every
// delivered frame. With tr set, the fleet is traced and, before it is
// torn down, after is handed the phase for the per-layer replay.
func measure(ctx context.Context, opt options, wl *workload, tr *tracer, after func(*phase) error) (*phase, error) {
	ph := &phase{wl: wl, tr: tr}
	// Drawing the inputs is the benchmark's work, not the system's, so
	// it stays out of the set-up time; each set-up starts from fresh
	// clip objects.
	inputs, err := wl.catalog(opt.seed)
	if err != nil {
		return nil, err
	}
	for i := 0; i < opt.setups; i++ {
		dir := filepath.Join(opt.workDir, fmt.Sprintf("setup%d", i))
		cat := inputs.clone()
		t0 := time.Now()
		fl, err := bootFleet(wl, cat, dir, tr)
		if err != nil {
			return nil, err
		}
		if err := fl.prewarm(ctx, opt.workers); err != nil {
			fl.close()
			return nil, err
		}
		ph.setups = append(ph.setups, time.Since(t0))
		if i < opt.setups-1 {
			fl.close()
			continue
		}
		ph.cat, ph.fl = cat, fl
	}
	defer ph.fl.close()
	opt.logf("bench: %s: set-up %v", wl.name, ph.setups)

	pop := newPopulation(wl, ph.cat, opt.seed)
	stopSampler := func() {}
	if tr != nil {
		ph.regBefore = scrape(ph.fl.registries())
		ph.rendersBefore = tr.renders()
		stopSampler = sampleGoroutines(&ph.goroutinesPeak)
	}
	for r := 0; r < opt.rounds && !ph.exhausted; r++ {
		budget := time.Duration(opt.seconds / float64(opt.rounds) * float64(time.Second))
		st, recs, exhausted := runRound(ctx, opt, ph, pop, budget)
		ph.rounds = append(ph.rounds, st)
		ph.recs = append(ph.recs, recs...)
		ph.exhausted = exhausted
		opt.logf("bench: %s: round %d: %d sessions in %v", wl.name, r, st.ok, st.wall.Round(time.Millisecond))
	}
	stopSampler()
	if ph.exhausted {
		opt.logf("bench: %s: catalog exhausted; the timed phase ended early", wl.name)
	}
	if tr != nil {
		ph.regAfter = scrape(ph.fl.registries())
		ph.rendersAfter = tr.renders()
	}
	if err := verify(ctx, opt, ph); err != nil {
		return nil, err
	}
	ph.summary = summarize(ph.recs)
	if tr == nil {
		// The records are the benchmark's memory, not the system's.
		ph.recs = nil
	}
	runtime.GC()
	var msEnd runtime.MemStats
	runtime.ReadMemStats(&msEnd)
	ph.heapLive = msEnd.HeapAlloc
	if after != nil {
		if err := after(ph); err != nil {
			return nil, err
		}
	}
	return ph, nil
}

// runRound is the closed loop: one client playing sessions back to
// back, each over its own connection, until the round's budget is spent
// (the session under way then finishes). One client, not one per CPU:
// with two on a two-CPU host each session's first frame queues behind
// the other session's work, by an amount that follows the host's load,
// and the run-to-run spread of the time-to-first-frame quantiles was
// about twice as wide. It returns the round's totals, its session
// records and whether a fresh catalog ran out.
func runRound(ctx context.Context, opt options, ph *phase, pop *population, budget time.Duration) (roundStat, []*sessionRec, bool) {
	var st roundStat
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	t0 := time.Now()
	deadline := t0.Add(budget)
	var recs []*sessionRec
	exhausted := false
	for (opt.quota > 0 && len(recs) < opt.quota) || (opt.quota <= 0 && time.Now().Before(deadline)) {
		s, ok := pop.take()
		if !ok {
			exhausted = true
			break
		}
		rec, _ := play(ctx, ph.fl.target(s), s, ph.tr.begin(s), false)
		recs = append(recs, rec)
	}
	st.wall = time.Since(t0)
	st.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	st.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	st.gcs = ms1.NumGC - ms0.NumGC
	for _, r := range recs {
		if r.err == nil {
			st.ok++
		}
	}
	return st, recs, exhausted
}

// sampleGoroutines records the peak goroutine count every 10ms until
// the returned stop function is called (stop waits for the sampler).
func sampleGoroutines(peak *int) (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			if n := runtime.NumGoroutine(); n > *peak {
				*peak = n
			}
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// verify checks every delivered frame of every timed session against a
// standalone reference server's stream of the rung that frame was
// served at. A proxy transcodes the upstream's lossy raw stream, so
// proxied sessions are checked against a standalone proxy in front of
// the reference server. A mismatch marks the session wrong.
func verify(ctx context.Context, opt options, ph *phase) error {
	ref := stream.NewServer(ph.cat.srcs)
	ref.SetLogf(quiet)
	addr, err := ref.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ref.Close()
	if ph.wl.proxy {
		p := stream.NewProxy(addr.String())
		p.SetLogf(quiet)
		if addr, err = p.Listen("127.0.0.1:0"); err != nil {
			return err
		}
		defer p.Close()
	}

	type key struct {
		clip string
		rung int
	}
	need := map[key][]uint64{}
	var order []key
	for _, r := range ph.recs {
		if r.err != nil {
			continue
		}
		ks := []key{{r.clip, r.rung}}
		for _, g := range r.rungByFrame {
			ks = append(ks, key{r.clip, int(g)})
		}
		for _, k := range ks {
			if _, ok := need[k]; !ok {
				need[k] = nil
				order = append(order, k)
			}
		}
	}
	got := make([][]uint64, len(order))
	if err := parallel(len(order), opt.workers, func(i int) error {
		k := order[i]
		rec, err := play(ctx, addr.String(), spec{idx: -1, clip: k.clip, rung: k.rung, device: devices[0]}, nil, true)
		if err != nil {
			return fmt.Errorf("reference %s rung %d: %w", k.clip, k.rung, err)
		}
		got[i] = rec.perFrame
		return nil
	}); err != nil {
		return err
	}
	for i, k := range order {
		need[k] = got[i]
	}
	if opt.refHook != nil {
		for _, k := range order {
			opt.refHook(k.clip, k.rung, need[k])
		}
	}
	for _, r := range ph.recs {
		if r.err != nil {
			continue
		}
		want := uint64(fnvOffset)
		n := len(need[key{r.clip, r.rung}])
		for i := 0; i < n; i++ {
			rung := r.rung
			if i < len(r.rungByFrame) {
				rung = int(r.rungByFrame[i])
			}
			frames := need[key{r.clip, rung}]
			if i >= len(frames) {
				break
			}
			want = fold(want, frames[i])
		}
		r.wrong = r.frames != n || r.digest != want
	}
	return nil
}

// scrape parses each registry's Prometheus exposition and sums the
// series the per-layer metrics read (nil registries give nil maps).
func scrape(regs []*obs.Registry) []map[string]float64 {
	out := make([]map[string]float64, len(regs))
	for i, r := range regs {
		if r == nil {
			continue
		}
		out[i] = scrapeOne(r)
	}
	return out
}
