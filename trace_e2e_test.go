// End-to-end distributed tracing test: a cold-miss request through
// client → proxy → upstream server must yield ONE connected trace tree
// — the trace ID minted by the client propagates in-process via context
// and across both TCP hops via the request's trace-context field, so
// the pipeline stages that ran on the far server parent back to the
// client's root span. Also pins the per-session power ledger against
// the client's own savings accounting.
package repro_test

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/display"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/video"
)

func TestTracePropagatesAcrossTiers(t *testing.T) {
	clip := video.MustNew("night", 32, 24, 8, 31, []video.SceneSpec{
		{Frames: 10, BaseLuma: 0.15, LumaSpread: 0.1, MaxLuma: 0.75, HighlightFrac: 0.01},
		{Frames: 10, BaseLuma: 0.25, LumaSpread: 0.12, MaxLuma: 0.95, HighlightFrac: 0.01},
	})
	catalog := map[string]core.Source{"night": core.ClipSource{Clip: clip}}

	// One registry shared by every tier: all spans of the distributed
	// request land in the same ring, so the assembled tree shows the
	// full cross-process chain with no orphan roots.
	reg := obs.NewRegistry()
	ds, err := obs.ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

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
	res, err := client.Play(proxyAddr.String(), "night", 0.10)
	if err != nil {
		t.Fatal(err)
	}

	// --- the single connected trace tree ---
	trees := reg.TraceTrees(0)
	if len(trees) != 1 {
		t.Fatalf("got %d trace trees, want 1 (one request, one trace)", len(trees))
	}
	tree := trees[0]
	if len(tree.Roots) != 1 {
		names := []string{}
		for _, r := range tree.Roots {
			names = append(names, r.Record.Name)
		}
		t.Fatalf("tree has %d roots (%v), want 1 — a broken parent link", len(tree.Roots), names)
	}
	if got := tree.Roots[0].Record.Name; got != "client.play" {
		t.Fatalf("tree rooted at %q, want client.play", got)
	}

	// Every span of the request carries the one trace ID; walk the tree
	// and count the tiers it crossed.
	seen := map[string]int{}
	var walk func(n *obs.TraceNode, depth int)
	var depthOf = map[string]int{}
	walk = func(n *obs.TraceNode, depth int) {
		if n.Record.Trace != tree.Trace {
			t.Errorf("span %s carries trace %s, want %s",
				n.Record.Name, n.Record.Trace, tree.Trace)
		}
		seen[n.Record.Name]++
		if _, ok := depthOf[n.Record.Name]; !ok {
			depthOf[n.Record.Name] = depth
		}
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(tree.Roots[0], 0)

	for _, want := range []string{
		"client.play",         // client root
		"client.attempt",      // one connection attempt
		"proxy.session",       // first hop
		"proxy.fetch_raw",     // upstream fetch (the second hop's client side)
		"server.session",      // far server, joined via the request header
		"anncache.lookup",     // artifact resolution on a cold miss
		"annotate.luma_stats", // the pipeline actually ran
	} {
		if seen[want] == 0 {
			t.Errorf("trace tree missing span %q (saw %v)", want, seen)
		}
	}
	// The chain must be genuinely nested, not a flat fan-out: the far
	// server's session hangs below the proxy's upstream fetch.
	if !(depthOf["server.session"] > depthOf["proxy.fetch_raw"] &&
		depthOf["proxy.fetch_raw"] > depthOf["proxy.session"] &&
		depthOf["proxy.session"] > depthOf["client.play"]) {
		t.Errorf("tiers not nested: depths %v", depthOf)
	}
	if seen["anncache.lookup"] < 2 {
		t.Errorf("anncache.lookup seen %d times, want >= 2 (track + variant)", seen["anncache.lookup"])
	}

	// --- /debug/traces serves the same tree over HTTP ---
	body := scrape(t, "http://"+ds.Addr().String(), "/debug/traces")
	var served []struct {
		Trace string `json:"trace"`
		Spans int    `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &served); err != nil {
		t.Fatalf("/debug/traces not JSON: %v\n%s", err, body)
	}
	if len(served) != 1 || served[0].Trace != tree.Trace.String() || served[0].Spans != tree.Spans {
		t.Errorf("/debug/traces = %+v, want trace %s with %d spans",
			served, tree.Trace, tree.Spans)
	}

	// --- the power ledger agrees with the session's own accounting ---
	if res.Ledger == nil {
		t.Fatal("PlayResult.Ledger is nil")
	}
	if want := 100 * res.TotalSavings; math.Abs(res.Ledger.SavedPct-want) > 1e-6 {
		t.Errorf("ledger SavedPct = %v, want session accounting's %v", res.Ledger.SavedPct, want)
	}
	if want := 100 * res.BacklightSavings; math.Abs(res.Ledger.BacklightSavedPct-want) > 1e-6 {
		t.Errorf("ledger BacklightSavedPct = %v, want %v", res.Ledger.BacklightSavedPct, want)
	}
	if res.Ledger.Frames != res.Frames || res.Ledger.WireBytes != int64(res.BytesStream) {
		t.Errorf("ledger frames/bytes = %d/%d, want %d/%d",
			res.Ledger.Frames, res.Ledger.WireBytes, res.Frames, res.BytesStream)
	}
	if !strings.Contains(res.Ledger.String(), "power saved: ") {
		t.Errorf("ledger report missing headline:\n%s", res.Ledger)
	}

	// Serving-side aggregation saw the session without client feedback
	// (the proxy served the annotated stream; the server only fed it raw).
	metrics := parseExposition(t, scrape(t, "http://"+ds.Addr().String(), "/metrics"))
	if v := metrics[`session_total{role="proxy"}`]; v < 1 {
		t.Errorf(`session_total{role="proxy"} = %v, want >= 1`, v)
	}
	if v := metrics[`power_saved_joules{role="proxy"}`]; v <= 0 {
		t.Errorf(`power_saved_joules{role="proxy"} = %v, want > 0`, v)
	}
}

// TestTraceSamplingDisabledEndToEnd pins head sampling: with a ratio of
// zero at the client, no tier records trace spans (the decision rides
// the header), while metrics still flow.
func TestTraceSamplingDisabledEndToEnd(t *testing.T) {
	clip := video.MustNew("night", 32, 24, 8, 31, []video.SceneSpec{
		{Frames: 8, BaseLuma: 0.2, LumaSpread: 0.1, MaxLuma: 0.8, HighlightFrac: 0.01},
	})
	reg := obs.NewRegistry()
	reg.SetTraceSampling(0)

	srv := stream.NewServer(map[string]core.Source{"night": core.ClipSource{Clip: clip}})
	srv.SetLogf(func(string, ...any) {})
	srv.SetObserver(reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := &stream.Client{Device: display.IPAQ5555(), Obs: reg}
	if _, err := client.Play(addr.String(), "night", 0.10); err != nil {
		t.Fatal(err)
	}
	if trees := reg.TraceTrees(0); len(trees) != 0 {
		t.Fatalf("sampling 0 still recorded %d trees", len(trees))
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `span_duration_seconds_count{span="server.session"}`) {
		t.Error("unsampled session span missing from metrics")
	}
}
