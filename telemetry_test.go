// End-to-end telemetry test: start the annotating server with a debug
// endpoint, stream a clip through server and proxy paths, scrape
// /metrics over HTTP, and assert the exposition is parseable and the
// pipeline counters and stage-latency histograms moved — the runtime
// observability the paper's quantitative claims depend on.
package repro_test

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/display"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/video"
)

// scrape fetches path from the debug server and returns the body.
func scrape(t *testing.T, base, path string) string {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s = %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// parseExposition feeds the scrape body through the typed parser in
// internal/obs (strict: malformed lines and duplicate series fail) and
// flattens it back to sample values keyed by "name{labels}" so the
// assertions below stay literal.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	e, err := obs.ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exposition: %v", err)
	}
	samples := map[string]float64{}
	for _, name := range e.Names() {
		for _, s := range e.Samples(name) {
			key := s.Name
			if len(s.Labels) > 0 {
				parts := make([]string, len(s.Labels))
				for i, l := range s.Labels {
					parts[i] = l.Key + `="` + l.Value + `"`
				}
				key += "{" + strings.Join(parts, ",") + "}"
			}
			samples[key] = s.Value
		}
	}
	return samples
}

func TestDebugEndpointScrape(t *testing.T) {
	clip := video.MustNew("night", 32, 24, 8, 31, []video.SceneSpec{
		{Frames: 10, BaseLuma: 0.15, LumaSpread: 0.1, MaxLuma: 0.75, HighlightFrac: 0.01},
		{Frames: 10, BaseLuma: 0.2, LumaSpread: 0.12, MaxLuma: 0.95, HighlightFrac: 0.01},
	})
	catalog := map[string]core.Source{"night": core.ClipSource{Clip: clip}}

	reg := obs.NewRegistry()
	ds, err := obs.ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	base := "http://" + ds.Addr().String()

	srv := stream.NewServer(catalog)
	srv.SetLogf(func(string, ...any) {})
	srv.SetObserver(reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	proxy := stream.NewProxy(addr.String())
	proxy.SetLogf(func(string, ...any) {})
	proxy.SetObserver(reg)
	proxyAddr, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	client := &stream.Client{Device: display.IPAQ5555(), Obs: reg}
	// Two direct sessions (second hits both caches) plus one proxied
	// session (exercises the raw path and upstream latency histogram).
	for i := 0; i < 2; i++ {
		if _, err := client.Play(addr.String(), "night", 0.10); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.Play(proxyAddr.String(), "night", 0.10); err != nil {
		t.Fatal(err)
	}

	// Play returns once the client has read the stream; each server
	// session goroutine tears down (and drops the gauge) just after.
	// Scrape only once the gauge reads zero, which also settles every
	// server-side counter bumped before it.
	active := reg.Gauge("stream_active_conns", "", obs.L("role", "server"))
	for deadline := time.Now().Add(5 * time.Second); active.Value() != 0; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("stream_active_conns{role=\"server\"} = %v, want 0 after sessions end", active.Value())
		}
	}
	if body := scrape(t, base, "/healthz"); !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %q", body)
	}
	metrics := scrape(t, base, "/metrics")
	samples := parseExposition(t, metrics)

	atLeast := func(key string, min float64) {
		t.Helper()
		v, ok := samples[key]
		if !ok {
			t.Errorf("metric %s missing from scrape", key)
			return
		}
		if v < min {
			t.Errorf("%s = %v, want >= %v", key, v, min)
		}
	}
	// Sessions have drained, so conns gauges exist and read zero.
	if v, ok := samples[`stream_active_conns{role="server"}`]; !ok || v != 0 {
		t.Errorf(`stream_active_conns{role="server"} = %v, %v; want 0 after sessions end`, v, ok)
	}
	atLeast(`stream_conns_total{role="server"}`, 3) // 2 direct + 1 raw fetch
	atLeast(`stream_conns_total{role="proxy"}`, 1)
	// 2 annotated sessions + 1 raw stream, 20 frames each.
	atLeast(`stream_frames_sent_total{role="server"}`, 60)
	atLeast(`stream_frames_sent_total{role="proxy"}`, 20)
	atLeast(`stream_bytes_sent_total{role="server"}`, 1000)
	atLeast(`anncache_misses_total{kind="track",role="server"}`, 1)
	atLeast(`anncache_hits_total{kind="track",role="server"}`, 1)
	atLeast(`anncache_misses_total{kind="variant",role="server"}`, 1)
	atLeast(`anncache_hits_total{kind="variant",role="server"}`, 1)
	atLeast(`anncache_misses_total{kind="track",role="proxy"}`, 1)
	atLeast(`anncache_entries{role="server"}`, 3)
	// Offline-pipeline stage latency histograms (server + proxy ran it).
	// The server computes a cold clip's luma stats in its digest pass
	// (core.DigestAndStats), so only the proxy runs the stats stage.
	atLeast(`span_duration_seconds_count{span="annotate.luma_stats"}`, 1)
	atLeast(`span_duration_seconds_count{span="annotate.scene_detect"}`, 2)
	atLeast(`span_duration_seconds_bucket{span="annotate.scene_detect",le="+Inf"}`, 2)
	atLeast(`span_duration_seconds_count{span="stream.compensate_encode"}`, 1)
	atLeast(`proxy_upstream_latency_seconds_count{role="proxy"}`, 1)
	// Online-path client telemetry.
	atLeast(`client_frames_decoded_total`, 60)
	atLeast(`client_bytes_received_total`, 1000)
	atLeast(`span_duration_seconds_count{span="client.decode"}`, 60)
	atLeast(`pipeline_frames_processed_total`, 40)
	atLeast(`pipeline_scenes_detected_total`, 4)
	// Power-ledger aggregation: the client accounted 3 sessions, the
	// server served 2 annotated ones, the proxy 1.
	atLeast(`session_total{role="client"}`, 3)
	atLeast(`session_total{role="server"}`, 2)
	atLeast(`session_total{role="proxy"}`, 1)
	atLeast(`session_frames_total{role="client"}`, 60)
	atLeast(`power_baseline_joules{role="client"}`, 0.001)
	// Runtime health, rendered at scrape time.
	atLeast(`go_goroutines`, 1)
	atLeast(`go_heap_alloc_bytes`, 1)
	atLeast(`process_start_time_seconds`, 1)

	// Histogram invariant: +Inf bucket equals the series count.
	inf := samples[`span_duration_seconds_bucket{span="client.decode",le="+Inf"}`]
	cnt := samples[`span_duration_seconds_count{span="client.decode"}`]
	if inf != cnt {
		t.Errorf("client.decode +Inf bucket %v != count %v", inf, cnt)
	}

	// The other debug endpoints respond too.
	if body := scrape(t, base, "/debug/spans"); !strings.Contains(body, "annotate.scene_detect") {
		t.Errorf("/debug/spans missing pipeline spans: %q", body)
	}
	if body := scrape(t, base, "/debug/vars"); !strings.Contains(body, "memstats") {
		t.Error("/debug/vars not serving expvar")
	}
	if body := scrape(t, base, "/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Error("/debug/pprof/ not serving the pprof index")
	}
}

// TestScrapeWhileStreaming scrapes /metrics concurrently with active
// sessions — the registry must tolerate reads under write load (run
// with -race).
func TestScrapeWhileStreaming(t *testing.T) {
	clip := video.MustNew("night", 32, 24, 8, 31, []video.SceneSpec{
		{Frames: 12, BaseLuma: 0.2, LumaSpread: 0.1, MaxLuma: 0.8, HighlightFrac: 0.01},
	})
	reg := obs.NewRegistry()
	ds, err := obs.ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	srv := stream.NewServer(map[string]core.Source{"night": core.ClipSource{Clip: clip}})
	srv.SetLogf(func(string, ...any) {})
	srv.SetObserver(reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func(i int) {
			client := &stream.Client{Device: display.IPAQ5555(), Obs: reg}
			_, err := client.Play(addr.String(), "night", float64(i%3)*0.05)
			done <- err
		}(i)
	}
	for i := 0; i < 8; i++ {
		resp, err := http.Get("http://" + ds.Addr().String() + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "stream_frames_sent_total") {
		t.Error("frames-sent counter never registered")
	}
}
