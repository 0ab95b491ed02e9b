package stream

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/display"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/video"
)

func newLocalListener(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln
}

// fakeServer accepts connections and hands each one to serve after the
// request has been read.
func fakeServer(t *testing.T, serve func(conn net.Conn, req Request)) string {
	t.Helper()
	ln := newLocalListener(t)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				req, err := ReadRequest(conn)
				if err != nil {
					WriteError(conn, "bad request")
					return
				}
				serve(conn, req)
			}(conn)
		}
	}()
	return ln.Addr().String()
}

func TestSentinelOverCapacity(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteOverCapacity(&buf); err != nil {
		t.Fatal(err)
	}
	_, remoteErr, err := ReadResponseMagic(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(remoteErr, ErrOverCapacity) {
		t.Errorf("remoteErr = %v, want ErrOverCapacity", remoteErr)
	}
	if !retryable(remoteErr) {
		t.Error("over-capacity refusal must be retryable")
	}
}

func TestSentinelBadMagic(t *testing.T) {
	_, _, err := ReadResponseMagic(bytes.NewReader([]byte("JUNKJUNK")))
	if !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
	if retryable(err) {
		t.Error("a peer speaking another protocol is not worth a retry")
	}
}

func TestSentinelTruncated(t *testing.T) {
	err := classifyStreamErr(io.ErrUnexpectedEOF)
	if !errors.Is(err, ErrTruncatedStream) {
		t.Errorf("classify(ErrUnexpectedEOF) = %v, want ErrTruncatedStream", err)
	}
	if !retryable(err) {
		t.Error("truncation must be retryable")
	}
	if retryable(errors.New("stream: server error: unknown clip")) {
		t.Error("a definitive server error must not be retryable")
	}
}

// TestClientTruncatedStream pins end-to-end truncation detection: a
// server that promises FrameCount frames but closes early must produce
// ErrTruncatedStream, not a silent short clip.
func TestClientTruncatedStream(t *testing.T) {
	src := testCatalog()["night"]
	w, h := src.Size()
	enc, err := codec.NewEncoder(w, h, src.FPS(), 4)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cw, err := container.NewWriter(&buf, container.Header{
		W: w, H: h, FPS: src.FPS(), FrameCount: src.TotalFrames(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Promise the full clip, deliver half.
	for i := 0; i < src.TotalFrames()/2; i++ {
		ef, err := enc.Encode(src.Frame(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := cw.WriteFrame(ef); err != nil {
			t.Fatal(err)
		}
	}
	addr := fakeServer(t, func(conn net.Conn, req Request) {
		conn.Write(buf.Bytes())
	})
	client := &Client{
		Device: display.IPAQ5555(),
		Retry:  RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond},
	}
	_, err = client.Play(addr, "night", 0.10)
	if !errors.Is(err, ErrTruncatedStream) {
		t.Errorf("err = %v, want ErrTruncatedStream", err)
	}
}

// TestClientDegradesOnCorruptAnnotations: a stream whose luminance chunk
// is garbage must still play — at full backlight, with the damage
// reported in Degraded — rather than fail.
func TestClientDegradesOnCorruptAnnotations(t *testing.T) {
	src := testCatalog()["night"]
	w, h := src.Size()
	enc, err := codec.NewEncoder(w, h, src.FPS(), 4)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cw, err := container.NewWriter(&buf, container.Header{
		W: w, H: h, FPS: src.FPS(), FrameCount: src.TotalFrames(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < src.TotalFrames(); i++ {
		ef, err := enc.Encode(src.Frame(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := cw.WriteFrame(ef); err != nil {
			t.Fatal(err)
		}
	}
	// Splice a corrupt ChunkLuminance into the header: the fixed header
	// is 14 bytes (magic, dims, fps, frame count) ending in the chunk
	// count, which goes from 0 to 1.
	raw := buf.Bytes()
	stream := append([]byte{}, raw[:13]...)
	stream = append(stream, 1)                                                   // one side-channel chunk
	stream = append(stream, container.ChunkLuminance, 0, 0, 0, 3, 255, 255, 255) // undecodable payload
	stream = append(stream, raw[14:]...)

	addr := fakeServer(t, func(conn net.Conn, req Request) {
		conn.Write(stream)
	})
	client := &Client{Device: display.IPAQ5555()}
	res, err := client.Play(addr, "night", 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames != src.TotalFrames() {
		t.Errorf("frames = %d, want %d", res.Frames, src.TotalFrames())
	}
	if res.Annotated {
		t.Error("session reported annotations despite a corrupt track")
	}
	if len(res.Degraded) == 0 || res.Degraded[0] != "annotations" {
		t.Errorf("Degraded = %v, want [annotations ...]", res.Degraded)
	}
	if res.AvgLevel != display.MaxLevel {
		t.Errorf("avg backlight = %v, want full (%d) in passthrough", res.AvgLevel, display.MaxLevel)
	}
}

// TestLegacyRequestMagicRejected: a live server answers a request framed
// with a retired magic (here a complete RQS1 request) with an ERR1 "bad
// request", and a client facing a peer that rejects its framing fails
// at once — a protocol mismatch is not retryable.
func TestLegacyRequestMagicRejected(t *testing.T) {
	_, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write([]byte("RQS1\x19\x00\x05night\x08ipaq5555")); err != nil {
		t.Fatal(err)
	}
	magic, remoteErr, err := ReadResponseMagic(conn)
	if err != nil {
		t.Fatal(err)
	}
	if magic != errMagic || remoteErr == nil || !strings.Contains(remoteErr.Error(), "bad request") {
		t.Fatalf("legacy request answered with %q, %v; want ERR1 bad request", magic[:], remoteErr)
	}

	// A shim that rejects every request the way the server rejects a
	// framing it cannot parse.
	ln := newLocalListener(t)
	var conns atomic.Int32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			go func(conn net.Conn) {
				defer conn.Close()
				var magic [4]byte
				if _, err := io.ReadFull(conn, magic[:]); err == nil {
					WriteError(conn, "bad request")
				}
			}(conn)
		}
	}()
	reg := obs.NewRegistry()
	client := &Client{Device: display.IPAQ5555(), Obs: reg,
		Retry: RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}}
	if _, err := client.Play(ln.Addr().String(), "night", 0.10); err == nil || !strings.Contains(err.Error(), "bad request") {
		t.Fatalf("Play = %v, want a bad request error", err)
	}
	if n := reg.Counter("stream_client_retries_total", "").Value(); n != 0 {
		t.Errorf("retries = %d, want 0", n)
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("client dialed %d times, want 1", n)
	}
}

// TestServerOverCapacityRefusalAndRetry: with a one-session cap, no
// admission queue, and a connection squatting on the slot, a resilient
// client gets clean shed responses, backs off, and succeeds once the
// slot frees up.
func TestServerOverCapacityRefusalAndRetry(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewServer(testCatalog())
	s.SetLogf(quiet)
	s.SetObserver(reg)
	s.SetMaxSessions(1)
	s.SetAdmissionQueue(0, 0) // hard refusal: shed immediately when full
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	// Squat on the only slot: connect and say nothing (the handshake
	// timeout is 10s, far beyond this test).
	squatter, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer squatter.Close()
	active := reg.Gauge("stream_active_conns", "", obs.L("role", "server"))
	for i := 0; active.Value() < 1; i++ {
		if i > 1000 {
			t.Fatal("squatter session never registered")
		}
		time.Sleep(time.Millisecond)
	}

	go func() {
		time.Sleep(100 * time.Millisecond)
		squatter.Close() // free the slot mid-retry
	}()
	client := &Client{
		Device: display.IPAQ5555(),
		Retry:  RetryPolicy{MaxAttempts: 10, BaseDelay: 25 * time.Millisecond, Jitter: 0},
	}
	res, err := client.Play(addr.String(), "night", 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries == 0 {
		t.Error("retries = 0, want at least one over-capacity refusal first")
	}
	if res.Frames != 20 {
		t.Errorf("frames = %d, want 20", res.Frames)
	}
	shed := reg.Counter("stream_sessions_shed_total", "", obs.L("role", "server"))
	if shed.Value() == 0 {
		t.Error("stream_sessions_shed_total = 0, want nonzero")
	}
}

// TestProxyServesStaleWhenUpstreamDies: after one good fetch the proxy
// must keep serving the clip from its cache when the upstream goes away.
func TestProxyServesStaleWhenUpstreamDies(t *testing.T) {
	upstreamSrv := NewServer(testCatalog())
	upstreamSrv.SetLogf(quiet)
	upstreamAddr, err := upstreamSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	p := NewProxy(upstreamAddr.String())
	p.SetLogf(quiet)
	p.SetObserver(reg)
	p.SetRetryPolicy(RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond})
	addr, err := p.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)

	client := &Client{Device: display.IPAQ5555()}
	warm, err := client.Play(addr.String(), "night", 0.10)
	if err != nil {
		t.Fatal(err)
	}

	upstreamSrv.Close() // upstream gone; only the cache remains

	stale, err := client.Play(addr.String(), "night", 0.10)
	if err != nil {
		t.Fatalf("stale serve failed: %v", err)
	}
	if stale.Frames != warm.Frames {
		t.Errorf("stale serve delivered %d frames, want %d", stale.Frames, warm.Frames)
	}
	staleServes := reg.Counter("proxy_stale_serves_total", "", obs.L("role", "proxy"))
	if staleServes.Value() == 0 {
		t.Error("proxy_stale_serves_total = 0, want nonzero")
	}
	retries := reg.Counter("proxy_upstream_retries_total", "", obs.L("role", "proxy"))
	if retries.Value() == 0 {
		t.Error("proxy_upstream_retries_total = 0, want nonzero")
	}

	// A clip that was never cached still fails cleanly.
	if _, err := client.Play(addr.String(), "uncached", 0.10); err == nil {
		t.Error("uncached clip served with the upstream down")
	}
}

// trackedConn counts Close exactly once per connection (the leak audit).
type trackedConn struct {
	net.Conn
	once   sync.Once
	closed *atomic.Int64
}

func (c *trackedConn) Close() error {
	c.once.Do(func() { c.closed.Add(1) })
	return c.Conn.Close()
}

// TestProxyClosesUpstreamConnections is the regression test for the
// fetchRaw connection leak: every upstream connection the proxy opens
// must be closed, on success and on every error path.
func TestProxyClosesUpstreamConnections(t *testing.T) {
	_, upstream := startServer(t)
	p := NewProxy(upstream)
	p.SetLogf(quiet)
	p.SetRetryPolicy(RetryPolicy{MaxAttempts: 1})
	var dialed, closed atomic.Int64
	p.SetDial(func(network, addr string) (net.Conn, error) {
		conn, err := net.Dial(network, addr)
		if err != nil {
			return nil, err
		}
		dialed.Add(1)
		return &trackedConn{Conn: conn, closed: &closed}, nil
	})
	addr, err := p.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	client := &Client{Device: display.IPAQ5555()}
	// Success path.
	if _, err := client.Play(addr.String(), "night", 0.10); err != nil {
		t.Fatal(err)
	}
	// Upstream-error path (unknown clip: upstream answers with an error
	// frame instead of a stream).
	if _, err := client.Play(addr.String(), "no-such-clip", 0.10); err == nil {
		t.Error("unknown clip succeeded through proxy")
	}
	p.Close()
	if d, c := dialed.Load(), closed.Load(); d == 0 || d != c {
		t.Errorf("upstream connections: %d dialed, %d closed (leak)", d, c)
	}
}

// TestProxyResumesClients: the resume extension must work through the
// proxy path too, since its streams are re-encoded deterministically.
func TestProxyResumesClients(t *testing.T) {
	_, upstream := startServer(t)
	p := NewProxy(upstream)
	p.SetLogf(quiet)
	addr, err := p.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)

	client := &Client{Device: display.IPAQ5555()}
	clean, err := client.Play(addr.String(), "night", 0.10)
	if err != nil {
		t.Fatal(err)
	}

	inj := faults.NewInjector(faults.Config{
		Seed:       1,
		ResetAfter: []int64{int64(clean.BytesStream) * 2 / 3},
	})
	faulty := &Client{
		Device: display.IPAQ5555(),
		Dial:   inj.Dialer(nil),
		Retry:  RetryPolicy{MaxAttempts: 4, BaseDelay: 5 * time.Millisecond},
	}
	res, err := faulty.Play(addr.String(), "night", 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames != clean.Frames {
		t.Errorf("frames = %d, want %d", res.Frames, clean.Frames)
	}
	if res.Resumes == 0 {
		t.Error("resumes = 0, want a mid-clip resume through the proxy")
	}
}

// TestClientPlayContextCancel: cancelling the context must abort the
// session promptly, including during backoff waits.
func TestClientPlayContextCancel(t *testing.T) {
	// A server that accepts and stalls forever.
	addr := fakeServer(t, func(conn net.Conn, req Request) {
		time.Sleep(time.Hour)
	})
	client := &Client{
		Device:      display.IPAQ5555(),
		ReadTimeout: time.Hour,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := client.PlayContext(ctx, addr, "night", 0.10)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("cancelled session reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled session did not return")
	}
}

// TestUncachedVideoLibraryClip guards the test catalog assumption the
// chaos tests calibrate against: the clip is deterministic, so two
// library builds are identical.
func TestUncachedVideoLibraryClip(t *testing.T) {
	a := core.ClipSource{Clip: video.MustNew("night", 32, 24, 8, 31, []video.SceneSpec{
		{Frames: 4, BaseLuma: 0.15, LumaSpread: 0.1, MaxLuma: 0.75, HighlightFrac: 0.01},
	})}
	b := core.ClipSource{Clip: video.MustNew("night", 32, 24, 8, 31, []video.SceneSpec{
		{Frames: 4, BaseLuma: 0.15, LumaSpread: 0.1, MaxLuma: 0.75, HighlightFrac: 0.01},
	})}
	for i := 0; i < a.TotalFrames(); i++ {
		if !a.Frame(i).Equal(b.Frame(i)) {
			t.Fatalf("clip generation is not deterministic at frame %d", i)
		}
	}
}
