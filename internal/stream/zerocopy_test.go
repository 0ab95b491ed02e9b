package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"

	"repro/internal/annotation"
	"repro/internal/codec"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/obs"
)

// The zero-copy serving path (variant wire form + sendWire) must be
// byte-for-byte indistinguishable from the writer it replaced: header
// via container.NewWriter, then one Writer.WriteFrame per packet. The
// tests here pin that equivalence for every serving shape — fixed
// quality, resume, device levels, adaptive markers, raw mode and store
// round trips — and gate the alloc and caching properties the fast path
// exists for.

// buildServingFixture computes the track and one prepared variant of
// the test clip, exactly as a server session would.
func buildServingFixture(t testing.TB) (core.Source, *annotation.Track, *variant, encodeConfig, int) {
	t.Helper()
	cat := testCatalog()
	src := cat["night"]
	s := NewServer(cat)
	s.SetLogf(quiet)
	track, err := s.track(context.Background(), "night", s.digestOf("night", src), src)
	if err != nil {
		t.Fatal(err)
	}
	qi := track.QualityIndex(0.10)
	cfg := s.enc.withDefaults(src.FPS())
	v, err := prepareVariant(context.Background(), src, track, qi, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return src, track, v, cfg, qi
}

// referenceContainerBytes assembles a stream exactly as the
// pre-zero-copy writer did: header, then one WriteFrame per packet.
func referenceContainerBytes(t *testing.T, hdr container.Header, packets []*codec.EncodedFrame) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw, err := container.NewWriter(&buf, hdr)
	if err != nil {
		t.Fatal(err)
	}
	for _, ef := range packets {
		if err := cw.WriteFrame(ef); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func annotatedHeader(src core.Source, track *annotation.Track, v *variant, levels []byte, from int) container.Header {
	w, h := src.Size()
	extra := map[uint8][]byte{
		container.ChunkDecodeCycles: v.cyclesChunk,
		container.ChunkSceneBytes:   v.scenesChunk,
	}
	if from > 0 {
		extra[container.ChunkResumeOffset] = container.EncodeResumeOffset(uint32(from))
	}
	if levels != nil {
		extra[container.ChunkDeviceLevels] = levels
	}
	return container.Header{
		W: w, H: h, FPS: src.FPS(),
		FrameCount:  len(v.frames) - from,
		Annotations: track,
		Extra:       extra,
	}
}

// firstIFrameAfter returns the first I-frame index > 0 (a legal resume
// point past the stream start).
func firstIFrameAfter(t *testing.T, v *variant) int {
	t.Helper()
	for i := 1; i < len(v.frames); i++ {
		if v.frames[i].Type == codec.IFrame {
			return i
		}
	}
	t.Fatal("variant has a single GOP; test clip needs more frames")
	return 0
}

// TestSendVariantMatchesReferenceWriter pins the zero-copy send
// against the historical per-frame writer for the fixed-quality
// shapes: plain, with a device-levels chunk, and resumed mid-clip.
func TestSendVariantMatchesReferenceWriter(t *testing.T) {
	src, track, v, _, _ := buildServingFixture(t)
	levels := []byte{1, 2, 3, 4, 5}
	resume := firstIFrameAfter(t, v)
	cases := []struct {
		name   string
		levels []byte
		from   int
	}{
		{"plain", nil, 0},
		{"device_levels", levels, 0},
		{"resume", nil, resume},
		{"resume_with_levels", levels, resume},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := referenceContainerBytes(t, annotatedHeader(src, track, v, tc.levels, tc.from), v.frames[tc.from:])
			var got bytes.Buffer
			sent, err := send(context.Background(), &got, src, track, v, tc.levels, tc.from, nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if sent != uint64(got.Len()) {
				t.Errorf("sent = %d, wrote %d bytes", sent, got.Len())
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("zero-copy stream differs from reference writer (%d vs %d bytes)", got.Len(), len(want))
			}
		})
	}
}

// TestSendVariantStoreRoundTripMatchesReference serves a variant that
// went through the artifact serialisation, from its in-memory aliased
// wire, and requires it to equal the reference writer's bytes, for an
// annotated variant and for a raw one.
func TestSendVariantStoreRoundTripMatchesReference(t *testing.T) {
	src, track, v, cfg, _ := buildServingFixture(t)
	raw, err := prepareVariant(context.Background(), src, nil, -1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		track *annotation.Track
		v     *variant
		want  []byte
	}{
		{"annotated", track, v, referenceContainerBytes(t, annotatedHeader(src, track, v, nil, 0), v.frames)},
		// A decoded raw variant carries empty but non-nil side-channel
		// slices; its header must stay the bare raw one.
		{"raw", nil, raw, rawReferenceBytes(t, src, cfg)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			art, err := encodeVariantArtifact(tc.v)
			if err != nil {
				t.Fatal(err)
			}
			dv, err := decodeVariantArtifact(art)
			if err != nil {
				t.Fatal(err)
			}
			serve := func(t *testing.T, v *variant) []byte {
				t.Helper()
				var got bytes.Buffer
				if _, err := send(context.Background(), &got, src, tc.track, v, nil, 0, nil, nil, nil); err != nil {
					t.Fatal(err)
				}
				return got.Bytes()
			}
			if got := serve(t, dv); !bytes.Equal(got, tc.want) {
				t.Fatal("store round-tripped variant served different bytes")
			}
		})
	}
}

// TestSendAdaptiveMatchesReferenceWriter pins a switchless adaptive
// session: the same container as a fixed session, with the opening
// rung-announcement marker interposed before the first frame.
func TestSendAdaptiveMatchesReferenceWriter(t *testing.T) {
	src, track, v, _, qi := buildServingFixture(t)
	packets := append([]*codec.EncodedFrame{qualitySwitchMarker(qi)}, v.frames...)
	want := referenceContainerBytes(t, annotatedHeader(src, track, v, nil, 0), packets)

	srvEnd, cliEnd := net.Pipe()
	dc := &deadlineConn{Conn: srvEnd}
	var got bytes.Buffer
	done := make(chan struct{})
	go func() {
		io.Copy(&got, cliEnd)
		close(done)
	}()
	getVariant := func(context.Context, int) (*variant, error) { return v, nil }
	lad := &ladder{ctrl: srvEnd, rung: qi, variant: getVariant, metrics: newLadderMetrics(obs.NewRegistry(), "server")}
	sent, err := send(context.Background(), dc, src, track, v, nil, 0, lad, nil, nil)
	switches := lad.switches
	srvEnd.Close()
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if len(switches) != 0 {
		t.Fatalf("unexpected switches: %v", switches)
	}
	if sent != uint64(got.Len()) {
		t.Errorf("sent = %d, wrote %d bytes", sent, got.Len())
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("adaptive zero-copy stream differs from reference writer (%d vs %d bytes)", got.Len(), len(want))
	}
}

// rawReferenceBytes replicates streamRaw's pre-caching behaviour: a
// bare header and a fresh encoder run over the clip.
func rawReferenceBytes(t *testing.T, src core.Source, cfg encodeConfig) []byte {
	t.Helper()
	w, h := src.Size()
	enc, err := codec.NewEncoder(w, h, cfg.GOP, cfg.QScale)
	if err != nil {
		t.Fatal(err)
	}
	var packets []*codec.EncodedFrame
	for i := 0; i < src.TotalFrames(); i++ {
		ef, err := enc.Encode(src.Frame(i))
		if err != nil {
			t.Fatal(err)
		}
		packets = append(packets, ef)
	}
	return referenceContainerBytes(t, container.Header{
		W: w, H: h, FPS: src.FPS(), FrameCount: src.TotalFrames(),
	}, packets)
}

func countSpans(r *obs.Registry, name string) int {
	n := 0
	for _, s := range r.RecentSpans() {
		if s.Name == name {
			n++
		}
	}
	return n
}

// TestStreamRawServedFromCache is the regression test for the raw-mode
// re-encode bug: every ModeRaw fetch used to run a fresh encoder over
// the whole clip. The encoded raw form is now an artifact-tier entry,
// so a second fetch must add no encode spans (and no pipeline spans)
// while returning byte-identical output — which also must match the
// old writer's bytes exactly.
func TestStreamRawServedFromCache(t *testing.T) {
	cat := testCatalog()
	src := cat["night"]
	reg := obs.NewRegistry()
	s := NewServer(cat)
	s.SetLogf(quiet)
	s.SetObserver(reg)
	ctx := obs.WithRegistry(context.Background(), reg)

	c, err := s.open(ctx, Request{Clip: "night", Mode: ModeRaw})
	if err != nil {
		t.Fatal(err)
	}
	var first, second bytes.Buffer
	if err := s.streamRaw(ctx, &first, c); err != nil {
		t.Fatal(err)
	}
	encodes := countSpans(reg, "stream.raw_encode")
	if encodes == 0 {
		t.Fatal("cold raw fetch recorded no encode span; span accounting broken")
	}
	if err := s.streamRaw(ctx, &second, c); err != nil {
		t.Fatal(err)
	}
	if n := countSpans(reg, "stream.raw_encode"); n != encodes {
		t.Errorf("second raw fetch re-encoded the clip: %d encode spans, want %d", n, encodes)
	}
	if n := countComputeSpans(reg); n != 0 {
		t.Errorf("raw fetches ran the annotation pipeline: %d compute spans", n)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("cached raw fetch served different bytes")
	}
	want := rawReferenceBytes(t, src, s.enc.withDefaults(src.FPS()))
	if !bytes.Equal(first.Bytes(), want) {
		t.Fatal("raw stream differs from the pre-caching writer's bytes")
	}
}

// failAfterWriter accepts exactly limit bytes, then fails every write;
// a write straddling the limit is a partial write (short count + error),
// the hardest case for byte accounting.
type failAfterWriter struct {
	limit int
	n     int
}

var errWireDown = errors.New("wire down")

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.n >= w.limit {
		return 0, errWireDown
	}
	k := len(p)
	if w.n+k > w.limit {
		k = w.limit - w.n
	}
	w.n += k
	if k < len(p) {
		return k, errWireDown
	}
	return k, nil
}

// TestSendVariantReportsBytesOnFailure pins the sent/error contract
// for every session shape — fixed, raw and adaptive: whatever the
// failure point — inside the header, on a packet boundary, mid-packet —
// the returned count is exactly the bytes the connection accepted, and
// the bytesSent counter moves by exactly that amount (no double
// counting, no zero-on-error).
func TestSendVariantReportsBytesOnFailure(t *testing.T) {
	src, track, v, cfg, qi := buildServingFixture(t)
	raw, err := prepareVariant(context.Background(), src, nil, -1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	marker := []*codec.EncodedFrame{qualitySwitchMarker(qi)}
	shapes := []struct {
		prefix   string // the fixed shape keeps the bare limit=N names
		track    *annotation.Track
		v        *variant
		adaptive bool
		total    int
	}{
		{"", track, v, false, len(referenceContainerBytes(t, annotatedHeader(src, track, v, nil, 0), v.frames))},
		{"raw/", nil, raw, false, len(rawReferenceBytes(t, src, cfg))},
		{"adaptive/", track, v, true, len(referenceContainerBytes(t, annotatedHeader(src, track, v, nil, 0), append(marker, v.frames...)))},
	}
	for _, sh := range shapes {
		limits := []int{0, 3, 40, int(sh.v.offs[0]), sh.total - len(sh.v.wire) + int(sh.v.offs[1]) + 3, sh.total - 1}
		for _, limit := range limits {
			t.Run(fmt.Sprintf("%slimit=%d", sh.prefix, limit), func(t *testing.T) {
				reg := obs.NewRegistry()
				bytesSent := reg.Counter("test_bytes_sent", "bytes")
				framesSent := reg.Counter("test_frames_sent", "frames")
				var lad *ladder
				if sh.adaptive {
					ctrl, peer := net.Pipe()
					defer ctrl.Close()
					defer peer.Close()
					getVariant := func(context.Context, int) (*variant, error) { return v, nil }
					lad = &ladder{ctrl: ctrl, rung: qi, variant: getVariant, metrics: newLadderMetrics(reg, "server")}
				}
				w := &failAfterWriter{limit: limit}
				sent, err := send(context.Background(), w, src, sh.track, sh.v, nil, 0, lad, framesSent, bytesSent)
				if err == nil {
					t.Fatal("send over a failing connection reported success")
				}
				if !errors.Is(err, errWireDown) {
					t.Fatalf("err = %v, want wrapped errWireDown", err)
				}
				if sent != uint64(w.n) {
					t.Errorf("sent = %d, connection accepted %d bytes", sent, w.n)
				}
				if got := bytesSent.Value(); got != sent {
					t.Errorf("bytesSent counter = %d, send returned %d", got, sent)
				}
			})
		}
	}
}

// TestWarmServeZeroAllocsPerFrame is the AllocsPerRun gate on the warm
// path. sendWire — the only per-frame code on a warm hit, shared by
// every session shape send serves (fixed, adaptive and raw) — must
// allocate nothing at all; everything send adds on top is per-session
// header work, so allocations cannot scale with frame count.
func TestWarmServeZeroAllocsPerFrame(t *testing.T) {
	src, track, v, _, _ := buildServingFixture(t)
	sink := &countingWriter{w: io.Discard}
	cw, err := container.NewWriter(sink, annotatedHeader(src, track, v, nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var sendErr error
	allocs := testing.AllocsPerRun(200, func() {
		if err := sendWire(ctx, cw, v, 0, len(v.frames), nil); err != nil {
			sendErr = err
		}
	})
	if sendErr != nil {
		t.Fatal(sendErr)
	}
	if allocs != 0 {
		t.Errorf("warm serve path allocates: %.1f allocs per send of %d frames, want 0", allocs, len(v.frames))
	}

	// Session-level flatness: serving the whole clip must cost the same
	// allocations as serving only the final GOP (mod the resume chunk's
	// few header allocs) — with sendWire at zero, the header is the only
	// allocator and allocations cannot scale with frame count.
	resume := firstIFrameAfter(t, v)
	for i := resume; i < len(v.frames); i++ {
		if v.frames[i].Type == codec.IFrame {
			resume = i
		}
	}
	session := func(from int) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, err := send(ctx, io.Discard, src, track, v, nil, from, nil, nil, nil); err != nil {
				sendErr = err
			}
		})
	}
	fullAllocs := session(0)
	tailAllocs := session(resume)
	if sendErr != nil {
		t.Fatal(sendErr)
	}
	if fullAllocs > tailAllocs+8 {
		t.Errorf("full session allocates %.1f vs %.1f for the final GOP (%d vs %d frames) — allocations scale with frame count",
			fullAllocs, tailAllocs, len(v.frames), len(v.frames)-resume)
	}
}

// BenchmarkWarmServe measures the warm serving path end to end at the
// session level: a prepared (cached) variant streamed through send.
// Reported frames/s is the per-core serving throughput the
// benchmark-regression gate tracks against BENCH_serving.json.
func BenchmarkWarmServe(b *testing.B) {
	src, track, v, _, _ := buildServingFixture(b)
	ctx := context.Background()
	var bytesTotal uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sent, err := send(ctx, io.Discard, src, track, v, nil, 0, nil, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		bytesTotal += sent
	}
	b.StopTimer()
	frames := float64(len(v.frames)) * float64(b.N)
	b.ReportMetric(frames/b.Elapsed().Seconds(), "frames/s")
	b.ReportMetric(float64(bytesTotal)/b.Elapsed().Seconds()/1e6, "MB/s")
}
