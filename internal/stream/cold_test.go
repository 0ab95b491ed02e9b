package stream

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/anncache"
	"repro/internal/annstore"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/obs"
	"repro/internal/scene"
	"repro/internal/video"
)

// coldClip is a clip the size of the benchmark's cold-miss workload:
// 48×32, 48 frames at 8 fps in three scenes. Each seed is new content.
func coldClip(seed int64) *video.Clip {
	return video.MustNew(fmt.Sprintf("cold-%d", seed), 48, 32, 8, seed, []video.SceneSpec{
		{Frames: 16, BaseLuma: 0.2, LumaSpread: 0.3, MaxLuma: 0.8, HighlightFrac: 0.02, Chroma: 0.5, Motion: 1.5},
		{Frames: 16, BaseLuma: 0.55, LumaSpread: 0.4, MaxLuma: 1.0, HighlightFrac: 0.1, Chroma: 0.4, Motion: 3},
		{Frames: 16, BaseLuma: 0.3, LumaSpread: 0.2, MaxLuma: 0.9, HighlightFrac: 0.01, Chroma: 0.6, Motion: 1},
	})
}

// BenchmarkColdSession measures the server's build for one cold
// session, everything before its first byte plus the store writes
// after it: each iteration opens a fresh clip object (new content, so
// no tier holds it) and resolves its digest, track, variant and device
// levels against a store in a temporary directory, as a session does.
// The benchmark-regression gate tracks its ms/op and allocs/op against
// BENCH_serving.json.
func BenchmarkColdSession(b *testing.B) {
	st, err := annstore.Open(b.TempDir(), annstore.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	s := NewServer(map[string]core.Source{})
	s.SetStore(st)
	clips := make([]*video.Clip, b.N)
	for i := range clips {
		clips[i] = coldClip(int64(i + 1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clip := clips[i]
		s.catalog[clip.Name] = core.ClipSource{Clip: clip}
		ctx, waitPuts := deferPuts(context.Background())
		req := Request{Clip: clip.Name, Quality: 0.10, Device: "ipaq5555"}
		c, err := s.open(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		track, err := c.track()
		if err != nil {
			b.Fatal(err)
		}
		t := s.tierFor(c.name)
		cfg := s.enc.withDefaults(c.src.FPS())
		if _, err := variantFor(ctx, t, c.digest, c.src, track, track.QualityIndex(req.Quality), cfg); err != nil {
			b.Fatal(err)
		}
		if deviceLevelsChunk(ctx, t, c.digest, req.Device, track) == nil {
			b.Fatal("no device levels")
		}
		waitPuts()
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/op")
}

// spansWithPrefix counts the registry's recent spans whose name starts
// with prefix.
func spansWithPrefix(reg *obs.Registry, prefix string) int {
	n := 0
	for _, s := range reg.RecentSpans() {
		if strings.HasPrefix(s.Name, prefix) {
			n++
		}
	}
	return n
}

// TestStatsRunOnlyInTrackCompute: scene stats are computed inside the
// track compute, under its one annotate.luma_stats span, and nowhere
// else. A cold server records exactly one; a warm restart and a
// cluster non-owner that fills the track from its owner record no
// annotate span at all.
func TestStatsRunOnlyInTrackCompute(t *testing.T) {
	dir := t.TempDir()
	s1, st1, reg1, addr1 := startStoreServer(t, dir)
	fetchAnnotated(t, addr1)
	if n := spanCount(reg1, "annotate.luma_stats"); n != 1 {
		t.Errorf("cold compute recorded %d annotate.luma_stats spans, want 1", n)
	}
	s1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}
	s2, st2, reg2, addr2 := startStoreServer(t, dir)
	fetchAnnotated(t, addr2)
	if n := spansWithPrefix(reg2, "annotate."); n != 0 {
		t.Errorf("warm restart recorded %d annotate spans, want 0", n)
	}
	s2.Close()
	st2.Close()

	nodes := startClusterFleet(t, 3, false)
	dg := core.SourceDigest(testCatalog()["night"])
	owner := cluster.Owner(nodes[0].srv.Cluster().Members(), cluster.RouteKey("track", dg))
	for _, n := range nodes {
		if n.addr == owner {
			continue
		}
		playDigests(t, n.addr, 0.10, nil)
		if got := spansWithPrefix(n.reg, "annotate."); got != 0 {
			t.Errorf("non-owner %s recorded %d annotate spans, want 0", n.addr, got)
		}
		if fillCount(n) == 0 {
			t.Errorf("non-owner %s filled nothing from the owner", n.addr)
		}
	}
	if got := fleetSpanCount(nodes, "annotate.luma_stats"); got != 1 {
		t.Errorf("fleet recorded %d annotate.luma_stats spans, want 1 (the owner's)", got)
	}
}

// sameVariant fails the test unless a and b carry the same wire and
// side channels.
func sameVariant(t *testing.T, what string, a, b *variant) {
	t.Helper()
	if !bytes.Equal(a.wire, b.wire) || !bytes.Equal(a.cyclesChunk, b.cyclesChunk) || !bytes.Equal(a.scenesChunk, b.scenesChunk) {
		t.Errorf("%s: variant from kept frames differs from the rendered one", what)
	}
	if len(a.offs) != len(b.offs) {
		t.Fatalf("%s: %d frame offsets, want %d", what, len(a.offs), len(b.offs))
	}
	for i := range a.offs {
		if a.offs[i] != b.offs[i] {
			t.Fatalf("%s: frame %d at offset %d, want %d", what, i, a.offs[i], b.offs[i])
		}
	}
}

// TestKeptFramesBuildIdenticalVariants: a variant built from the frames
// the digest pass kept is byte-identical to one built by rendering, for
// every rung an annotated or adaptive session may be served or swapped
// to, and for the raw encode; the whole set renders each frame once.
func TestKeptFramesBuildIdenticalVariants(t *testing.T) {
	ctx := context.Background()
	clip := gopClip(27)
	cfg := encodeConfig{}.withDefaults(clip.FPS())
	counted := &countingSource{Source: clip}
	digest, frames, err := core.DigestKeep(ctx, counted)
	if err != nil {
		t.Fatal(err)
	}
	if digest != core.SourceDigest(clip) || frames == nil {
		t.Fatalf("DigestKeep: digest %s, %d frames", digest, len(frames))
	}
	w, h := clip.Size()
	kept := &memSource{w: w, h: h, fps: clip.FPS(), frames: frames}
	track, _, err := core.AnnotatePipeline(ctx, kept, scene.DefaultConfig(clip.FPS()), nil, core.AnnotateOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := core.Annotate(clip, scene.DefaultConfig(clip.FPS()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(track.Encode(), want.Encode()) {
		t.Fatal("track from kept frames differs from the rendered clip's")
	}
	for qi := range track.Quality {
		got, err := buildVariant(ctx, kept, track, qi, cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := buildVariant(ctx, clip, track, qi, cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		sameVariant(t, fmt.Sprintf("rung %d", qi), got, ref)
	}
	got, err := buildVariant(ctx, kept, nil, -1, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := buildVariant(ctx, clip, nil, -1, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	sameVariant(t, "raw", got, ref)
	if r := counted.renders.Load(); r != int64(clip.TotalFrames()) {
		t.Errorf("%d renders of a %d-frame clip, want one each", r, clip.TotalFrames())
	}
}

// countingSource counts the frames it renders.
type countingSource struct {
	core.Source
	renders atomic.Int64
}

func (s *countingSource) Frame(i int) *frame.Frame {
	s.renders.Add(1)
	return s.Source.Frame(i)
}

// TestColdSessionRendersOnce: a cold server session reads the frames
// its digest pass kept, so it renders each frame once and streams what
// a server that renders for every stage streams, annotated and raw.
func TestColdSessionRendersOnce(t *testing.T) {
	for _, mode := range []Mode{ModeAnnotated, ModeRaw} {
		src := testCatalog()["night"]
		counted := &countingSource{Source: src}
		cold := NewServer(map[string]core.Source{"night": counted})
		// Memoising the digest up front leaves this server the catalog
		// source: every stage renders for itself.
		rendering := NewServer(map[string]core.Source{"night": src})
		rendering.digestOf("night", src)
		var streams [][]byte
		for _, s := range []*Server{cold, rendering} {
			s.SetLogf(quiet)
			addr, err := s.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			streams = append(streams, fetchMode(t, addr.String(), mode))
		}
		if !bytes.Equal(streams[0], streams[1]) {
			t.Errorf("mode %d: cold session streamed %d bytes that differ from the rendering server's %d",
				mode, len(streams[0]), len(streams[1]))
		}
		if r := counted.renders.Load(); r != int64(src.TotalFrames()) {
			t.Errorf("mode %d: %d renders of a %d-frame clip, want one each", mode, r, src.TotalFrames())
		}
	}
}

// fetchMode reads one whole "night" session in the given mode.
func fetchMode(t *testing.T, addr string, mode Mode) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteRequest(conn, Request{Clip: "night", Quality: 0.10, Device: "ipaq5555", Mode: mode}); err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// slowSource takes a while over every frame and closes started when
// the first render begins.
type slowSource struct {
	core.Source
	once    sync.Once
	started chan struct{}
	renders atomic.Int64
}

func (s *slowSource) Frame(i int) *frame.Frame {
	s.once.Do(func() { close(s.started) })
	s.renders.Add(1)
	time.Sleep(2 * time.Millisecond)
	return s.Source.Frame(i)
}

// finalizedSource counts the frames it rendered that the collector has
// freed.
type finalizedSource struct {
	core.Source
	freed atomic.Int64
}

func (s *finalizedSource) Frame(i int) *frame.Frame {
	f := s.Source.Frame(i)
	runtime.SetFinalizer(f, func(*frame.Frame) { s.freed.Add(1) })
	return f
}

// TestKeptFramesFreedWhileStreaming: once a fixed cold session's
// variant is built, nothing holds the frames its digest pass kept, so
// they can be collected while the client is still reading.
func TestKeptFramesFreedWhileStreaming(t *testing.T) {
	for _, mode := range []Mode{ModeAnnotated, ModeRaw} {
		clip := coldClip(7)
		src := &finalizedSource{Source: core.ClipSource{Clip: clip}}
		s := NewServer(map[string]core.Source{clip.Name: src})
		s.SetLogf(quiet)
		srv, cli := net.Pipe()
		done := make(chan error, 1)
		go func() { done <- s.clientSession(srv) }()
		if err := WriteRequest(cli, Request{Clip: clip.Name, Quality: 0.10, Device: "ipaq5555", Mode: mode}); err != nil {
			t.Fatal(err)
		}
		// The first byte comes after the variant; the unbuffered pipe
		// then holds the handler in its send.
		var first [1]byte
		if _, err := io.ReadFull(cli, first[:]); err != nil {
			t.Fatal(err)
		}
		want := int64(clip.TotalFrames())
		for i := 0; i < 100 && src.freed.Load() < want; i++ {
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
		freed := src.freed.Load()
		go io.Copy(io.Discard, cli)
		err := <-done
		srv.Close()
		if err != nil {
			t.Fatalf("mode %v: session: %v", mode, err)
		}
		if freed != want {
			t.Errorf("mode %v: %d of %d kept frames freed mid-stream, want all", mode, freed, want)
		}
	}
}

// TestColdRequestCancelledMidDigest: closing the server while a cold
// request's digest pass is rendering stops the pass, memoises no
// digest, and leaves no goroutine behind.
func TestColdRequestCancelledMidDigest(t *testing.T) {
	base := runtime.NumGoroutine()
	src := &slowSource{Source: gopClip(200), started: make(chan struct{})}
	s := NewServer(map[string]core.Source{"slow": src})
	s.SetLogf(quiet)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteRequest(conn, Request{Clip: "slow", Quality: 0.10, Device: "ipaq5555"}); err != nil {
		t.Fatal(err)
	}
	<-src.started
	s.Close()
	conn.Close()
	if r := src.renders.Load(); r >= 200 {
		t.Errorf("digest rendered all %d frames after the server closed", r)
	}
	s.digestMu.Lock()
	_, memoised := s.digests["slow"]
	s.digestMu.Unlock()
	if memoised {
		t.Error("a cancelled digest pass was memoised")
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the request, %d after", base, runtime.NumGoroutine())
		}
	}
}

// TestShutdownKeepsPendingPuts: a session's store writes run behind its
// send, and a Shutdown issued while they are still in flight returns
// only once every artifact the session computed is on disk. Each put is
// held in flight by its artifact codec until the test lets it go.
func TestShutdownKeepsPendingPuts(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 3)
	for _, cod := range []*artifactCodec{&trackCodec, &variantCodec, &levelsCodec} {
		orig := *cod
		t.Cleanup(func() { *cod = orig })
		cod.encode = func(v any) ([]byte, error) {
			entered <- struct{}{}
			<-gate
			return orig.encode(v)
		}
	}
	dir := t.TempDir()
	st, err := annstore.Open(dir, annstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(testCatalog())
	s.SetLogf(quiet)
	s.SetStore(st)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteRequest(conn, Request{Clip: "night", Quality: 0.10, Device: "ipaq5555"}); err != nil {
		t.Fatal(err)
	}
	// The first byte goes out once the track, variant and levels are
	// resolved, and none of their puts can finish before the gate opens.
	var magic [4]byte
	if _, err := io.ReadFull(conn, magic[:]); err != nil {
		t.Fatal(err)
	}
	for range 3 {
		<-entered
	}
	go io.Copy(io.Discard, conn)
	shut := make(chan error, 1)
	go func() { shut <- s.Shutdown(context.Background()) }()
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned (%v) with three puts in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	if err := <-shut; err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, k := range st.Keys() {
		kinds[k.Kind]++
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if kinds["track"] != 1 || kinds["variant"] != 1 || kinds["levels"] != 1 {
		t.Fatalf("store holds %v after Shutdown, want one track, variant and levels", kinds)
	}
	reopened, err := annstore.Open(dir, annstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if n := reopened.Len(); n != 3 {
		t.Fatalf("reopened store holds %d artifacts, want 3", n)
	}
}

// TestPendingPutBlocksRecompute: a lookup that misses memory while its
// key's put is in flight waits for the put and reads the stored
// artifact; it never computes the artifact again.
func TestPendingPutBlocksRecompute(t *testing.T) {
	st, err := annstore.Open(t.TempDir(), annstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tr := tier{cache: anncache.New(0), store: st, puts: &storePuts{}}
	key := anncache.Key{Kind: "levels", Digest: "d", Quality: -1, Device: "ipaq5555"}
	tr.puts.begin(key)
	got := make(chan any, 1)
	go func() {
		v, err := tr.getOrCompute(context.Background(), key, "", levelsCodec, func(context.Context) (any, int64, error) {
			t.Error("computed an artifact whose put was in flight")
			return []byte("recomputed"), 10, nil
		})
		if err != nil {
			t.Error(err)
		}
		got <- v
	}()
	select {
	case v := <-got:
		t.Fatalf("lookup returned %q before the pending put landed", v)
	case <-time.After(20 * time.Millisecond):
	}
	if err := st.Put(key, []byte("stored")); err != nil {
		t.Fatal(err)
	}
	tr.puts.end(key)
	if v := <-got; string(v.([]byte)) != "stored" {
		t.Fatalf("lookup returned %q, want the stored artifact", v)
	}
}

// TestConcurrentColdSessionsComputeOnce: concurrent sessions of one
// cold clip on a server whose memory tier holds a single artifact share
// one compute of each artifact. An artifact evicted from memory while
// its put runs behind a send is read back from the store, never
// computed again, and every session streams the same bytes.
func TestConcurrentColdSessionsComputeOnce(t *testing.T) {
	s, st, reg, addr := startStoreServer(t, t.TempDir())
	defer st.Close()
	defer s.Close()
	s.SetCacheCapacity(1)
	const sessions = 6
	streams := make([][]byte, sessions)
	var wg sync.WaitGroup
	for i := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			if err := WriteRequest(conn, Request{Clip: "night", Quality: 0.10, Device: "ipaq5555"}); err != nil {
				t.Error(err)
				return
			}
			if streams[i], err = io.ReadAll(conn); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i, b := range streams {
		if len(b) == 0 || !bytes.Equal(b, streams[0]) {
			t.Errorf("session %d streamed different bytes", i)
		}
	}
	for _, name := range []string{"annotate.build_track", "stream.compensate_encode"} {
		if n := spanCount(reg, name); n != 1 {
			t.Errorf("%s ran %d times for one clip, want 1", name, n)
		}
	}
}
