package stream

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"

	"repro/internal/breaker"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/video"
)

// These tests pin the proxy's fingerprint revalidation: every request
// refetches the clip from the upstream, but the decode, the content
// digest and the track lookup run only when the raw bytes changed.

const revalidateDevice = "ipaq5555"

// newRevalidateProxy builds a proxy that is driven through fetchSource
// directly (no listener): one attempt per fetch, and a breaker that
// never trips, so every call reaches the upstream.
func newRevalidateProxy(t testing.TB, upstream string) *Proxy {
	t.Helper()
	p := NewProxy(upstream)
	p.SetLogf(quiet)
	p.SetRetryPolicy(RetryPolicy{MaxAttempts: 1})
	p.SetBreakerConfig(breaker.Config{MinSamples: 1 << 20})
	t.Cleanup(p.Close)
	return p
}

// rawResponse returns the bytes a server answers a ModeRaw request
// with: the response the proxy fingerprints.
func rawResponse(t *testing.T, addr, clip string) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteRequest(conn, Request{Clip: clip, Device: revalidateDevice, Mode: ModeRaw}); err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// packetOffsets returns the offset of every frame packet in a raw
// response.
func packetOffsets(t *testing.T, raw []byte) []int {
	t.Helper()
	r := bytes.NewReader(raw)
	cr, err := container.NewReader(r)
	if err != nil {
		t.Fatal(err)
	}
	var offs []int
	for {
		off := len(raw) - r.Len()
		if _, err := cr.ReadFrame(); err == io.EOF {
			return offs
		} else if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, off)
	}
}

// fakeUpstream answers every request with the bytes last passed to set,
// then closes the connection.
func fakeUpstream(t *testing.T) (addr string, set func([]byte)) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var resp atomic.Pointer[[]byte]
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if _, err := ReadRequest(conn); err == nil {
					conn.Write(*resp.Load())
				}
			}()
		}
	}()
	return ln.Addr().String(), func(b []byte) { resp.Store(&b) }
}

func trackCounter(reg *obs.Registry, name string) uint64 {
	return reg.Counter(name, "", obs.L("kind", "track"), obs.L("role", "proxy")).Value()
}

// TestProxyRevalidateUnchangedReusesEntry: an upstream that sends the
// same bytes twice gets back the same entry, with no track lookup on
// the second request, and the fetch spans say which path ran.
func TestProxyRevalidateUnchangedReusesEntry(t *testing.T) {
	_, upstream := startServer(t)
	p := newRevalidateProxy(t, upstream)
	reg := obs.NewRegistry()
	p.SetObserver(reg)
	ctx := obs.WithRegistry(context.Background(), reg)

	first, stale, err := p.fetchSource(ctx, "night", revalidateDevice)
	if err != nil || stale {
		t.Fatalf("first fetch: stale=%v err=%v", stale, err)
	}
	second, stale, err := p.fetchSource(ctx, "night", revalidateDevice)
	if err != nil || stale {
		t.Fatalf("second fetch: stale=%v err=%v", stale, err)
	}
	if second != first {
		t.Error("unchanged upstream clip was decoded and annotated again (new entry)")
	}
	if m, h := trackCounter(reg, "anncache_misses_total"), trackCounter(reg, "anncache_hits_total"); m != 1 || h != 0 {
		t.Errorf("track lookups: %v misses, %v hits; want 1 miss and no lookup on revalidation", m, h)
	}
	var got []string
	for _, sp := range reg.RecentSpans() { // newest first
		if sp.Name != "proxy.fetch_raw" {
			continue
		}
		for _, a := range sp.Attrs {
			if a.Key == "revalidate" {
				got = append(got, a.Value)
			}
		}
	}
	if len(got) != 2 || got[0] != "unchanged" || got[1] != "changed" {
		t.Errorf("proxy.fetch_raw revalidate attrs (newest first) = %q, want [unchanged changed]", got)
	}
}

// TestProxyRevalidateChangedContentReannotates: the same clip name with
// new upstream content gets a new digest and a new track on the very
// next request, and switching back reuses the first content's track by
// digest.
func TestProxyRevalidateChangedContentReannotates(t *testing.T) {
	_, addrA := startServer(t)
	other := video.MustNew("night", 32, 24, 8, 77, []video.SceneSpec{
		{Frames: 20, BaseLuma: 0.5, LumaSpread: 0.1, MaxLuma: 0.9, HighlightFrac: 0.02},
	})
	b := NewServer(map[string]core.Source{"night": core.ClipSource{Clip: other}})
	b.SetLogf(quiet)
	bAddr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	addrB := bAddr.String()

	var target atomic.Value
	target.Store(addrA)
	p := newRevalidateProxy(t, addrA)
	p.SetDial(func(network, _ string) (net.Conn, error) {
		return net.Dial(network, target.Load().(string))
	})
	reg := obs.NewRegistry()
	p.SetObserver(reg)
	ctx := context.Background()
	fetch := func() *proxyEntry {
		t.Helper()
		e, stale, err := p.fetchSource(ctx, "night", revalidateDevice)
		if err != nil || stale {
			t.Fatalf("fetch: stale=%v err=%v", stale, err)
		}
		return e
	}

	first := fetch()
	target.Store(addrB)
	second := fetch()
	if second == first || second.fp == first.fp {
		t.Fatal("new upstream content matched the cached fingerprint")
	}
	if second.digest == first.digest {
		t.Errorf("new content kept digest %s", first.digest)
	}
	if second.digest != core.SourceDigest(second.src) {
		t.Error("entry digest does not match its decoded frames")
	}
	if second.track == first.track {
		t.Error("new content served the old clip's annotation track")
	}
	if m := trackCounter(reg, "anncache_misses_total"); m != 2 {
		t.Errorf("track misses = %v, want 2 (new content re-annotated)", m)
	}
	if again := fetch(); again != second {
		t.Error("unchanged content from the new upstream was not reused")
	}

	target.Store(addrA)
	back := fetch()
	if back == second || back.digest != first.digest || back.track != first.track {
		t.Error("switching back to the first content did not restore its digest and track")
	}
}

// TestProxyRevalidateTruncatedOrCorruptFetchNeverMatches: a damaged
// refetch of a cached clip never matches its fingerprint and never
// returns its entry as fresh; a truncated one still fails with
// ErrTruncatedStream.
func TestProxyRevalidateTruncatedOrCorruptFetchNeverMatches(t *testing.T) {
	_, real := startServer(t)
	full := rawResponse(t, real, "night")
	offs := packetOffsets(t, full)
	last := offs[len(offs)-1]
	flip := func(at int) []byte {
		b := bytes.Clone(full)
		b[at] ^= 0x5a
		return b
	}

	up, serve := fakeUpstream(t)
	serve(full)
	p := newRevalidateProxy(t, up)
	ctx := context.Background()
	cached, stale, err := p.fetchSource(ctx, "night", revalidateDevice)
	if err != nil || stale {
		t.Fatalf("warm fetch: stale=%v err=%v", stale, err)
	}

	for _, tc := range []struct {
		name      string
		raw       []byte
		truncated bool
	}{
		{"truncated at a packet boundary", full[:last], true},
		{"truncated mid-packet", full[:last+8], false},
		{"corrupt last payload", flip((last + 6 + len(full)) / 2), false},
		{"corrupt first payload", flip(offs[0] + 6 + 3), false},
		{"corrupt header", flip(8), false}, // the FPS byte
	} {
		t.Run(tc.name, func(t *testing.T) {
			serve(tc.raw)
			e, err := p.fetchRaw(ctx, up, "night", revalidateDevice, cached)
			if e == cached {
				t.Fatal("damaged fetch returned the cached entry as fresh")
			}
			if err == nil && e.fp == cached.fp {
				t.Fatal("damaged fetch matched the cached fingerprint")
			}
			if tc.truncated && !errors.Is(err, ErrTruncatedStream) {
				t.Errorf("err = %v, want ErrTruncatedStream", err)
			}
			got, stale, err := p.fetchSource(ctx, "night", revalidateDevice)
			if err == nil && got == cached && !stale {
				t.Error("fetchSource served the cached entry as fresh after a damaged fetch")
			}
		})
	}

	serve(full)
	if e, err := p.fetchRaw(ctx, up, "night", revalidateDevice, cached); err != nil || e != cached {
		t.Errorf("intact refetch: err=%v, reused=%v; want the cached entry back", err, e == cached)
	}
}

// TestProxyEntryCostCountsPixelBytes: a clip entry is charged the bytes
// its decoded frames really hold (3 per RGB pixel), plus its
// fingerprint and track.
func TestProxyEntryCostCountsPixelBytes(t *testing.T) {
	_, upstream := startServer(t)
	p := newRevalidateProxy(t, upstream)
	e, _, err := p.fetchSource(context.Background(), "night", revalidateDevice)
	if err != nil {
		t.Fatal(err)
	}
	var pix int64
	for i := 0; i < e.src.TotalFrames(); i++ {
		pix += int64(len(e.src.Frame(i).Pix)) * 3
	}
	if want := pix + sha256.Size + int64(e.track.Size()); e.cost() != want {
		t.Errorf("cost() = %d, want %d (%d pixel bytes + fingerprint + %d track bytes)",
			e.cost(), want, pix, e.track.Size())
	}
}

// BenchmarkProxyRevalidate is one proxy revalidation of an unchanged
// clip over loopback: the upstream streams the raw clip, the proxy
// reads and fingerprints it. The clip is sized like the proxy-edge
// bench workload's (64×48, 56 frames).
func BenchmarkProxyRevalidate(b *testing.B) {
	clip := video.MustNew("edge", 64, 48, 8, 5, []video.SceneSpec{
		{Frames: 28, BaseLuma: 0.2, LumaSpread: 0.1, MaxLuma: 0.8, HighlightFrac: 0.01},
		{Frames: 28, BaseLuma: 0.4, LumaSpread: 0.15, MaxLuma: 0.95, HighlightFrac: 0.02},
	})
	s := NewServer(map[string]core.Source{"edge": core.ClipSource{Clip: clip}})
	s.SetLogf(quiet)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	p := newRevalidateProxy(b, addr.String())
	ctx := context.Background()
	if _, _, err := p.fetchSource(ctx, "edge", revalidateDevice); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, stale, err := p.fetchSource(ctx, "edge", revalidateDevice); err != nil || stale {
			b.Fatalf("revalidate: stale=%v err=%v", stale, err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(clip.TotalFrames())*float64(b.N)/b.Elapsed().Seconds(), "frames/s")
}
