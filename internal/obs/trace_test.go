package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStartTraceRootsAndParents(t *testing.T) {
	r := NewRegistry()
	ctx := WithRegistry(context.Background(), r)

	ctx, root := StartTrace(ctx, "client.play")
	rootSC := root.SpanContext()
	if !rootSC.Valid() {
		t.Fatal("root span context not valid")
	}
	if !rootSC.Sampled {
		t.Fatal("default sampling should keep every trace")
	}
	if got := SpanContextFrom(ctx); got != rootSC {
		t.Fatalf("context carries %+v, want root %+v", got, rootSC)
	}

	cctx, child := StartSpanCtx(ctx, "server.session")
	childSC := child.SpanContext()
	if childSC.Trace != rootSC.Trace {
		t.Errorf("child trace %s, want inherited %s", childSC.Trace, rootSC.Trace)
	}
	if childSC.Span == rootSC.Span {
		t.Error("child reused the parent's span ID")
	}
	if got := SpanContextFrom(cctx); got != childSC {
		t.Errorf("child context carries %+v, want %+v", got, childSC)
	}

	// A plain StartSpan below an active trace joins it too.
	leaf := StartSpan(cctx, "annstore.get")
	if leaf.SpanContext().Trace != rootSC.Trace {
		t.Error("StartSpan under an active trace did not join it")
	}
	leaf.End()
	child.End()
	root.End()

	trees := r.TraceTrees(0)
	if len(trees) != 1 {
		t.Fatalf("got %d trees, want 1", len(trees))
	}
	tree := trees[0]
	if tree.Trace != rootSC.Trace || tree.Spans != 3 {
		t.Fatalf("tree %s with %d spans, want %s with 3", tree.Trace, tree.Spans, rootSC.Trace)
	}
	if len(tree.Roots) != 1 || tree.Roots[0].Record.Name != "client.play" {
		t.Fatalf("tree roots = %+v, want single client.play", tree.Roots)
	}
	sess := tree.Roots[0].Children
	if len(sess) != 1 || sess[0].Record.Name != "server.session" {
		t.Fatalf("root children = %+v, want single server.session", sess)
	}
	if len(sess[0].Children) != 1 || sess[0].Children[0].Record.Name != "annstore.get" {
		t.Fatalf("session children = %+v, want single annstore.get", sess[0].Children)
	}
}

func TestStartSpanCtxRootsFreshTrace(t *testing.T) {
	r := NewRegistry()
	ctx := WithRegistry(context.Background(), r)
	_, sp := StartSpanCtx(ctx, "server.session")
	if !sp.SpanContext().Valid() {
		t.Fatal("span hit without a propagated parent should root a fresh trace")
	}
	sp.End()
	if trees := r.TraceTrees(0); len(trees) != 1 || trees[0].Roots[0].Record.Name != "server.session" {
		t.Fatalf("trees = %+v, want one rooted at server.session", trees)
	}
}

func TestSpanAttributes(t *testing.T) {
	r := NewRegistry()
	ctx := WithRegistry(context.Background(), r)
	_, sp := StartTrace(ctx, "op")
	sp.SetAttr("clip", "ice_age")
	sp.SetAttrInt("bytes", 1234)
	sp.End()
	recs := r.recentTraceSpans()
	if len(recs) != 1 {
		t.Fatalf("got %d trace spans, want 1", len(recs))
	}
	want := []Attr{{"clip", "ice_age"}, {"bytes", "1234"}}
	if len(recs[0].Attrs) != 2 || recs[0].Attrs[0] != want[0] || recs[0].Attrs[1] != want[1] {
		t.Fatalf("attrs = %+v, want %+v", recs[0].Attrs, want)
	}
}

func TestRemoteParentJoinsTrace(t *testing.T) {
	// Simulates the protocol hop: the receiving process installs the
	// decoded SpanContext and its session span must join the trace.
	r := NewRegistry()
	remote := SpanContext{Trace: newTraceID(), Span: newSpanID(), Sampled: true}
	ctx := WithSpanContext(WithRegistry(context.Background(), r), remote)
	_, sp := StartSpanCtx(ctx, "server.session")
	sc := sp.SpanContext()
	if sc.Trace != remote.Trace {
		t.Fatalf("session trace %s, want remote %s", sc.Trace, remote.Trace)
	}
	sp.End()
	// The remote parent never lands in this ring; its child must still
	// surface as a root rather than vanish.
	trees := r.TraceTrees(0)
	if len(trees) != 1 || len(trees[0].Roots) != 1 {
		t.Fatalf("trees = %+v, want one orphan root", trees)
	}
	if got := trees[0].Roots[0].Record.Parent; got != remote.Span {
		t.Errorf("orphan root parent = %s, want %s", got, remote.Span)
	}
}

func TestTraceSampling(t *testing.T) {
	r := NewRegistry()
	r.SetTraceSampling(0)
	ctx := WithRegistry(context.Background(), r)
	ctx, sp := StartTrace(ctx, "op")
	if sp.SpanContext().Sampled {
		t.Fatal("ratio 0 sampled a trace")
	}
	_, child := StartSpanCtx(ctx, "child")
	if child.SpanContext().Sampled {
		t.Fatal("child did not inherit the unsampled decision")
	}
	child.End()
	sp.End()
	if trees := r.TraceTrees(0); len(trees) != 0 {
		t.Fatalf("unsampled spans landed in the trace ring: %+v", trees)
	}
	// Metrics still observe unsampled spans.
	if h := r.Histogram(SpanMetric, "", nil, L("span", "op")); h.Count() != 1 {
		t.Errorf("unsampled span skipped the histogram (count %d)", h.Count())
	}

	// A sampled remote decision overrides the local ratio.
	remote := SpanContext{Trace: newTraceID(), Span: newSpanID(), Sampled: true}
	_, sp2 := StartSpanCtx(WithSpanContext(ctx, remote), "joined")
	if !sp2.SpanContext().Sampled {
		t.Error("remote sampled decision not honoured")
	}
	sp2.End()
}

func TestTraceRingBoundsAndResize(t *testing.T) {
	r := NewRegistry()
	r.traceRing = make([]SpanRecord, 4)
	ctx := WithRegistry(context.Background(), r)
	for i := 0; i < 10; i++ {
		_, sp := StartTrace(ctx, "op")
		sp.End()
	}
	if got := len(r.recentTraceSpans()); got != 4 {
		t.Fatalf("trace ring holds %d spans, want 4", got)
	}
	// Metric-only spans must not evict trace spans.
	for i := 0; i < 100; i++ {
		r.StartSpan("burst").End()
	}
	if got := len(r.recentTraceSpans()); got != 4 {
		t.Fatalf("metric-only burst disturbed the trace ring (%d spans)", got)
	}
}

func TestSpanRingResize(t *testing.T) {
	r := NewRegistry()
	r.spanRing = make([]SpanRecord, 8)
	for i := 0; i < 50; i++ {
		r.StartSpan("s").End()
	}
	if got := len(r.RecentSpans()); got != 8 {
		t.Fatalf("span ring holds %d, want 8", got)
	}
}

func TestTraceJSONLWriter(t *testing.T) {
	r := NewRegistry()
	var buf bytes.Buffer
	r.SetTraceWriter(&buf)
	ctx := WithRegistry(context.Background(), r)
	ctx, root := StartTrace(ctx, "client.play")
	_, child := StartSpanCtx(ctx, "server.session")
	child.SetAttr("clip", "shrek2")
	child.End()
	root.End()

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d JSONL lines, want 2:\n%s", len(lines), buf.String())
	}
	var j struct {
		Trace  string            `json:"trace"`
		Parent string            `json:"parent"`
		Name   string            `json:"name"`
		Attrs  map[string]string `json:"attrs"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &j); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if j.Name != "server.session" || j.Attrs["clip"] != "shrek2" || j.Parent == "" {
		t.Errorf("child line = %+v, want server.session with clip attr and parent", j)
	}
	if j.Trace != root.SpanContext().Trace.String() {
		t.Errorf("exported trace %s, want %s", j.Trace, root.SpanContext().Trace)
	}
}

func TestDebugTracesEndpoint(t *testing.T) {
	r := NewRegistry()
	ctx := WithRegistry(context.Background(), r)
	ctx, root := StartTrace(ctx, "client.play")
	_, child := StartSpanCtx(ctx, "anncache.lookup")
	child.SetAttr("outcome", "computed")
	time.Sleep(2 * time.Millisecond)
	child.End()
	root.End()

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	code, body := get("/debug/traces")
	if code != http.StatusOK {
		t.Fatalf("/debug/traces = %d, want 200", code)
	}
	var trees []struct {
		Trace string `json:"trace"`
		Spans int    `json:"spans"`
		Roots []struct {
			Name     string `json:"name"`
			Children []struct {
				Name  string            `json:"name"`
				Attrs map[string]string `json:"attrs"`
			} `json:"children"`
		} `json:"roots"`
	}
	if err := json.Unmarshal([]byte(body), &trees); err != nil {
		t.Fatalf("/debug/traces body not JSON: %v\n%s", err, body)
	}
	if len(trees) != 1 || trees[0].Spans != 2 || len(trees[0].Roots) != 1 {
		t.Fatalf("trees = %+v, want one two-span tree", trees)
	}
	tr := trees[0]
	if tr.Roots[0].Name != "client.play" ||
		len(tr.Roots[0].Children) != 1 ||
		tr.Roots[0].Children[0].Name != "anncache.lookup" ||
		tr.Roots[0].Children[0].Attrs["outcome"] != "computed" {
		t.Errorf("unexpected tree shape: %+v", tr)
	}

	// min filter: everything here is far shorter than a minute.
	if _, body := get("/debug/traces?min=1m"); strings.TrimSpace(body) != "[]" {
		t.Errorf("?min=1m body = %q, want []", body)
	}
	if code, _ := get("/debug/traces?min=bogus"); code != http.StatusBadRequest {
		t.Errorf("?min=bogus = %d, want 400", code)
	}

	// /debug/spans lists the trace ID and attributes.
	_, spans := get("/debug/spans")
	if !strings.Contains(spans, "trace="+root.SpanContext().Trace.String()) {
		t.Errorf("/debug/spans missing trace ID:\n%s", spans)
	}
	if !strings.Contains(spans, "outcome=computed") {
		t.Errorf("/debug/spans missing attributes:\n%s", spans)
	}
}

// TestConcurrentTracingAndScrape drives traced spans from many
// goroutines while /metrics and /debug/traces are scraped — the -race
// regression for the trace ring, the JSONL writer and the runtime
// metric refresh.
func TestConcurrentTracingAndScrape(t *testing.T) {
	r := NewRegistry()
	r.traceRing = make([]SpanRecord, 64)
	r.SetTraceWriter(io.Discard)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	ctx := WithRegistry(context.Background(), r)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tctx, root := StartTrace(ctx, "client.play")
				_, child := StartSpanCtx(tctx, "anncache.lookup")
				child.SetAttr("outcome", "hit")
				child.End()
				root.End()
			}
		}()
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				for _, path := range []string{"/metrics", "/debug/traces", "/debug/spans"} {
					resp, err := http.Get(srv.URL + path)
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if len(r.TraceTrees(0)) == 0 {
		t.Error("no trace trees recorded under concurrency")
	}
}

// TestTracingDisabledAllocatesNothing pins the zero-cost contract for
// the new trace entry points: with no registry attached, rooting a
// trace, opening child spans and setting attributes must not allocate.
func TestTracingDisabledAllocatesNothing(t *testing.T) {
	ctx := context.Background()
	if n := testing.AllocsPerRun(200, func() {
		tctx, root := StartTrace(ctx, "client.play")
		cctx, child := StartSpanCtx(tctx, "server.session")
		child.SetAttr("clip", "x")
		child.SetAttrInt("bytes", 42)
		StartSpan(cctx, "leaf").End()
		child.End()
		root.End()
	}); n != 0 {
		t.Fatalf("disabled tracing allocates %v/op", n)
	}
}

func TestRuntimeMetricsOnScrape(t *testing.T) {
	r := NewRegistry()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	body := string(b)
	for _, want := range []string{
		"go_goroutines ",
		"go_heap_alloc_bytes ",
		"go_gc_pause_seconds_bucket",
		"process_start_time_seconds ",
		`go_build_info{`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
