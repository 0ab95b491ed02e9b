package stream

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/display"
	"repro/internal/video"
)

func quiet(string, ...any) {}

func testCatalog() map[string]core.Source {
	dark := video.MustNew("night", 32, 24, 8, 31, []video.SceneSpec{
		{Frames: 10, BaseLuma: 0.15, LumaSpread: 0.1, MaxLuma: 0.75, HighlightFrac: 0.01},
		{Frames: 10, BaseLuma: 0.2, LumaSpread: 0.12, MaxLuma: 0.95, HighlightFrac: 0.01},
	})
	return map[string]core.Source{"night": core.ClipSource{Clip: dark}}
}

func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	s := NewServer(testCatalog())
	s.SetLogf(quiet)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, addr.String()
}

func TestRequestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := Request{Clip: "night", Quality: 0.10, Device: "ipaq5555", Mode: ModeAnnotated}
	if err := WriteRequest(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRequest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Clip != want.Clip || got.Device != want.Device || got.Mode != want.Mode {
		t.Errorf("request round trip: %+v vs %+v", got, want)
	}
	if got.Quality < 0.09 || got.Quality > 0.11 {
		t.Errorf("quality = %v, want ~0.10", got.Quality)
	}
}

func TestRequestValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRequest(&buf, Request{Clip: strings.Repeat("x", 300)}); err == nil {
		t.Error("overlong clip name accepted")
	}
	if err := WriteRequest(&buf, Request{Clip: "a", Quality: 2}); err == nil {
		t.Error("quality > 1 accepted")
	}
	// Rejected inputs. The legacy magics carry a well-formed body, so
	// only the magic decides: RQS4 is the one accepted framing.
	var good bytes.Buffer
	if err := WriteRequest(&good, Request{Clip: "night", Quality: 0.1, Device: "ipaq5555"}); err != nil {
		t.Fatal(err)
	}
	body := string(good.Bytes()[4:])
	for _, tc := range []struct{ name, in string }{
		{"bad magic", "BAD!xxxxx"},
		{"empty request", ""},
		{"RQS1 request", "RQS1" + body},
		{"RQS2 request", "RQS2" + body},
		{"RQS3 request", "RQS3" + body},
	} {
		if _, err := ReadRequest(strings.NewReader(tc.in)); !errors.Is(err, ErrProtocol) {
			t.Errorf("%s: err = %v, want ErrProtocol", tc.name, err)
		}
	}
}

func TestErrorResponseRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteError(&buf, "boom"); err != nil {
		t.Fatal(err)
	}
	_, remoteErr, err := ReadResponseMagic(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if remoteErr == nil || !strings.Contains(remoteErr.Error(), "boom") {
		t.Errorf("remoteErr = %v", remoteErr)
	}
}

func TestClientPlaysAnnotatedStream(t *testing.T) {
	_, addr := startServer(t)
	client := &Client{Device: display.IPAQ5555()}
	res, err := client.Play(addr, "night", 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames != 20 {
		t.Errorf("frames = %d, want 20", res.Frames)
	}
	if !res.Annotated || res.Scenes < 2 {
		t.Errorf("annotations missing: %+v", res)
	}
	if res.BacklightSavings <= 0.2 {
		t.Errorf("backlight savings = %v, want substantial on dark clip", res.BacklightSavings)
	}
	if res.AvgLevel >= display.MaxLevel {
		t.Error("backlight never dimmed")
	}
	if res.BytesAnn <= 0 || res.BytesAnn > 512 {
		t.Errorf("annotation bytes = %d, want small nonzero", res.BytesAnn)
	}
	if res.BytesStream <= res.BytesAnn {
		t.Errorf("stream bytes = %d implausibly small", res.BytesStream)
	}
	// The compensated stream must be brighter than the original content.
	if res.DecodedAvgLuma < 60 {
		t.Errorf("decoded avg luma = %v; compensation should brighten a dark clip",
			res.DecodedAvgLuma)
	}
}

func TestClientQualitySweepIncreasesSavings(t *testing.T) {
	_, addr := startServer(t)
	client := &Client{Device: display.IPAQ5555()}
	lossless, err := client.Play(addr, "night", 0)
	if err != nil {
		t.Fatal(err)
	}
	aggressive, err := client.Play(addr, "night", 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if aggressive.BacklightSavings < lossless.BacklightSavings {
		t.Errorf("savings at 20%% (%v) below lossless (%v)",
			aggressive.BacklightSavings, lossless.BacklightSavings)
	}
}

func TestServerRejectsUnknownClip(t *testing.T) {
	_, addr := startServer(t)
	client := &Client{Device: display.IPAQ5555()}
	_, err := client.Play(addr, "no-such-clip", 0.1)
	if err == nil || !strings.Contains(err.Error(), "unknown clip") {
		t.Errorf("err = %v, want unknown clip", err)
	}
}

func TestProxyServesAnnotatedFromRawUpstream(t *testing.T) {
	_, upstream := startServer(t)
	p := NewProxy(upstream)
	p.SetLogf(quiet)
	addr, err := p.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)

	client := &Client{Device: display.Zaurus5600()}
	res, err := client.Play(addr.String(), "night", 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Annotated {
		t.Fatal("proxy stream not annotated")
	}
	if res.Frames != 20 {
		t.Errorf("frames = %d, want 20", res.Frames)
	}
	if res.BacklightSavings <= 0.1 {
		t.Errorf("proxy-path savings = %v", res.BacklightSavings)
	}
}

func TestProxyUpstreamDown(t *testing.T) {
	p := NewProxy("127.0.0.1:1") // nothing listens there
	p.SetLogf(quiet)
	addr, err := p.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	client := &Client{Device: display.IPAQ5555()}
	if _, err := client.Play(addr.String(), "night", 0.1); err == nil {
		t.Error("expected error when upstream is down")
	}
}

func TestClientWithoutDevice(t *testing.T) {
	c := &Client{}
	if _, err := c.Play("127.0.0.1:1", "x", 0); err == nil {
		t.Error("client without device accepted")
	}
}

func TestServerAndProxyAgreeOnSavings(t *testing.T) {
	// "Either the proxy or the server node suffices" — both paths should
	// deliver the same backlight schedule to the client.
	_, upstream := startServer(t)
	p := NewProxy(upstream)
	p.SetLogf(quiet)
	proxyAddr, err := p.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)

	client := &Client{Device: display.IPAQ5555()}
	direct, err := client.Play(upstream, "night", 0.10)
	if err != nil {
		t.Fatal(err)
	}
	viaProxy, err := client.Play(proxyAddr.String(), "night", 0.10)
	if err != nil {
		t.Fatal(err)
	}
	diff := direct.BacklightSavings - viaProxy.BacklightSavings
	if diff < 0 {
		diff = -diff
	}
	// The proxy analyses decoded (lossy) frames, so tiny deviations in
	// scene targets are expected; the schedules must agree closely.
	if diff > 0.05 {
		t.Errorf("server path %v vs proxy path %v savings",
			direct.BacklightSavings, viaProxy.BacklightSavings)
	}
}

func TestStreamCarriesApplicationAnnotations(t *testing.T) {
	_, addr := startServer(t)
	client := &Client{Device: display.IPAQ5555()}
	res, err := client.Play(addr, "night", 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DecodeCycles) != res.Frames {
		t.Errorf("decode-cycle annotations: %d entries for %d frames",
			len(res.DecodeCycles), res.Frames)
	}
	for i, c := range res.DecodeCycles {
		if c == 0 {
			t.Fatalf("frame %d annotated with zero cycles", i)
		}
	}
	if len(res.NetScenes) != res.Scenes {
		t.Errorf("scene-byte annotations: %d entries for %d scenes",
			len(res.NetScenes), res.Scenes)
	}
	var annBytes int
	for _, s := range res.NetScenes {
		if s.Bytes <= 0 || s.Seconds <= 0 {
			t.Fatalf("degenerate scene annotation %+v", s)
		}
		annBytes += s.Bytes
	}
	// The per-scene byte counts must account for the stream payload
	// (headers and side channels excluded).
	if annBytes <= 0 || annBytes > res.BytesStream {
		t.Errorf("scene bytes %d vs stream bytes %d", annBytes, res.BytesStream)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, addr := startServer(t)
	const n = 8
	errs := make(chan error, n)
	results := make(chan *PlayResult, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			client := &Client{Device: display.Devices()[i%3]}
			res, err := client.Play(addr, "night", float64(i%5)*0.05)
			if err != nil {
				errs <- err
				return
			}
			results <- res
		}(i)
	}
	for i := 0; i < n; i++ {
		select {
		case err := <-errs:
			t.Fatal(err)
		case res := <-results:
			if res.Frames != 20 {
				t.Errorf("session got %d frames", res.Frames)
			}
		}
	}
}

func TestServerCloseInterruptsSessions(t *testing.T) {
	s := NewServer(testCatalog())
	s.SetLogf(quiet)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		client := &Client{Device: display.IPAQ5555()}
		// May fail or succeed depending on timing; must not hang.
		client.Play(addr.String(), "night", 0.1)
	}()
	s.Close()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("client hung after server close")
	}
	// New connections must be refused after Close.
	client := &Client{Device: display.IPAQ5555()}
	if _, err := client.Play(addr.String(), "night", 0.1); err == nil {
		t.Error("play succeeded after server close")
	}
}

func TestServerAnnotationCacheIsReused(t *testing.T) {
	srv, addr := startServer(t)
	client := &Client{Device: display.IPAQ5555()}
	if _, err := client.Play(addr, "night", 0.1); err != nil {
		t.Fatal(err)
	}
	// Second session must reuse the cached track (same pointer).
	src := testCatalog()["night"]
	first, err := srv.track(context.Background(), "night", srv.digestOf("night", src), src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Play(addr, "night", 0.2); err != nil {
		t.Fatal(err)
	}
	second, err := srv.track(context.Background(), "night", srv.digestOf("night", src), src)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Error("annotation track recomputed")
	}
}

func TestServerResolvesDeviceLevels(t *testing.T) {
	_, addr := startServer(t)
	client := &Client{Device: display.IPAQ5555()}
	res, err := client.Play(addr, "night", 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ServerLevels {
		t.Fatal("server did not resolve device levels for a known device")
	}
	// The server-resolved schedule must equal what the client would
	// compute with its own LUT: play with an unknown device name to force
	// the client-side path and compare savings.
	anon := *display.IPAQ5555()
	anon.Name = "unknown-device"
	clientLocal := &Client{Device: &anon}
	local, err := clientLocal.Play(addr, "night", 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if local.ServerLevels {
		t.Error("server resolved levels for an unknown device name")
	}
	if math.Abs(local.BacklightSavings-res.BacklightSavings) > 1e-9 {
		t.Errorf("server-level path %v vs client-LUT path %v savings",
			res.BacklightSavings, local.BacklightSavings)
	}
}

func TestVariantCacheServesIdenticalStreams(t *testing.T) {
	srv, addr := startServer(t)
	client := &Client{Device: display.IPAQ5555()}
	if _, err := client.Play(addr, "night", 0.10); err != nil {
		t.Fatal(err)
	}
	// One play populates track + variant + device-levels artifacts.
	if n := srv.cache.Len(); n != 3 {
		t.Fatalf("artifact cache has %d entries after first play, want 3", n)
	}
	// Same quality again: nothing new. Different quality: one more variant.
	if _, err := client.Play(addr, "night", 0.10); err != nil {
		t.Fatal(err)
	}
	if n := srv.cache.Len(); n != 3 {
		t.Errorf("artifact cache has %d entries after repeat play, want 3", n)
	}
	if _, err := client.Play(addr, "night", 0.20); err != nil {
		t.Fatal(err)
	}
	if n := srv.cache.Len(); n != 4 {
		t.Errorf("artifact cache has %d entries after new quality, want 4", n)
	}
}
