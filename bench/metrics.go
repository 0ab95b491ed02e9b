package main

import (
	"runtime"
	"time"

	"repro/internal/codec"
)

// metricDef names one reported metric and its unit. BENCHMARK.json
// lists the same names and units, with each end-to-end metric's
// direction and regression bound; the self-test keeps the two equal.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"sessions_per_s", "1/s"},
	{"ttff_p50_ms", "ms"},
	{"ttff_p90_ms", "ms"},
	{"cpu_ms_per_session", "ms"},
	{"alloc_kb_per_session", "KB"},
	{"heap_live_mb", "MB"},
	{"saved_pct", "%"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"client.dial_ms_p50", "ms"},
	{"client.first_frame_ms_p50", "ms"},
	{"client.stream_ms_p50", "ms"},
	{"container.parse_us_per_frame", "us"},
	{"codec.decode_us_per_frame", "us"},
	{"codec.decode_allocs_per_frame", "count"},
	{"server.ttfb_ms_p50", "ms"},
	{"server.ttfb_ms_p90", "ms"},
	{"server.send_ms_p50", "ms"},
	{"server.bytes_per_session", "bytes"},
	{"anncache.hit_ratio", "ratio"},
	{"anncache.evictions_per_session", "count"},
	{"anncache.singleflight_waits_per_session", "count"},
	{"annstore.getref_us_p50", "us"},
	{"annstore.get_us_p50", "us"},
	{"annstore.put_ms_p50", "ms"},
	{"annstore.put_ms_p90", "ms"},
	{"video.render_us_per_frame", "us"},
	{"video.renders_per_computed_frame", "count"},
	{"scene.stats_us_per_frame", "us"},
	{"scene.detect_us_per_clip", "us"},
	{"annotation.track_us_per_clip", "us"},
	{"core.pipeline_ms_per_clip", "ms"},
	{"core.digest_ms_per_clip", "ms"},
	{"compensate.us_per_frame", "us"},
	{"codec.encode_us_per_frame", "us"},
	{"cluster.fills_per_session", "count"},
	{"cluster.fill_ms_p50", "ms"},
	{"cluster.fill_ms_p90", "ms"},
	{"cluster.fill_bytes_per_session", "bytes"},
	{"cluster.fallback_computes", "count"},
	{"cluster.computes_per_key", "count"},
	{"proxy.upstream_ms_p50", "ms"},
	{"proxy.upstream_bytes_per_session", "bytes"},
	{"proxy.upstream_conns_per_session", "count"},
	{"ladder.switches_per_session", "count"},
	{"runtime.gc_per_1k_sessions", "count"},
	{"runtime.goroutines_peak", "count"},
	{"ttff.unaccounted_ms_p50", "ms"},
	{"session.unaccounted_pct", "%"},
	{"trace.overhead_pct", "%"},
	{"calib.dct8x8_ns", "ns"},
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// sessionRate is the median over rounds of completed sessions per
// second.
func sessionRate(ph *phase) float64 {
	var rates []float64
	for _, r := range ph.rounds {
		rates = append(rates, float64(r.ok)/r.wall.Seconds())
	}
	return median(rates)
}

// endToEndMetrics reduces a measured phase to the end-to-end metrics.
// Rates and CPU are medians over rounds, so a burst of load from
// elsewhere on the host moves them less; allocation pools the rounds;
// time to first frame is taken over the sessions of every round pooled;
// saved energy is folded from the client ledgers in session order; and
// set-up time is the median set-up.
func endToEndMetrics(ph *phase) map[string]metric {
	var alloc uint64
	var cpu []float64
	ok := 0
	for _, r := range ph.rounds {
		if r.ok > 0 {
			cpu = append(cpu, ms(r.cpu)/float64(r.ok))
		}
		alloc += r.alloc
		ok += r.ok
	}
	ttff := ph.summary.ttffMs
	var setups []float64
	for _, d := range ph.setups {
		setups = append(setups, d.Seconds())
	}
	m := map[string]metric{}
	set := func(name string, v float64, n int) {
		m[name] = metric{Value: v, Unit: unitOf(endToEnd, name), n: n}
	}
	set("sessions_per_s", sessionRate(ph), len(ph.rounds))
	set("ttff_p50_ms", quantile(ttff, 0.50), len(ttff))
	set("ttff_p90_ms", quantile(ttff, 0.90), len(ttff))
	set("cpu_ms_per_session", median(cpu), len(cpu))
	set("alloc_kb_per_session", float64(alloc)/1024/float64(max(ok, 1)), ok)
	set("heap_live_mb", float64(ph.heapLive)/1e6, 1)
	set("saved_pct", 100*ph.summary.saved/max(ph.summary.baseline, 1e-300), ok)
	set("setup_s", median(setups), len(setups))
	return m
}

// cohort is what must match for two runs to be compared: the toolchain,
// the platform, the processors and a calibration kernel's speed.
type cohort struct {
	Go         string  `json:"go"`
	OS         string  `json:"goos"`
	Arch       string  `json:"goarch"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	DCTNs      float64 `json:"calib_dct8x8_ns"`
}

func currentCohort() cohort {
	return cohort{
		Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		DCTNs: calibDCT(),
	}
}

// calibDCT times one forward plus inverse 8×8 DCT (the kernel
// cmd/benchgate calibrates with), fastest of five batches, in ns.
func calibDCT() float64 {
	var src, dst codec.Block
	for i := range src {
		src[i] = float64(i%255) - 128
	}
	const n = 20000
	best := 0.0
	for r := 0; r < 5; r++ {
		t := time.Now()
		for i := 0; i < n; i++ {
			codec.FDCT(&src, &dst)
			codec.IDCT(&dst, &src)
		}
		if ns := float64(time.Since(t).Nanoseconds()) / n; r == 0 || ns < best {
			best = ns
		}
	}
	return best
}
