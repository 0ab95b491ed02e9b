package stream

import (
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/breaker"
	"repro/internal/core"
	"repro/internal/display"
	"repro/internal/faults"
	"repro/internal/frame"
	"repro/internal/obs"
)

// tempNetErr is a transient accept failure (what EMFILE or ECONNABORTED
// look like through the net package's Temporary contract).
type tempNetErr struct{}

func (tempNetErr) Error() string   { return "simulated transient accept failure" }
func (tempNetErr) Temporary() bool { return true }
func (tempNetErr) Timeout() bool   { return false }

// scriptListener replays a scripted sequence of Accept outcomes; a
// closed script behaves like a closed listener.
type scriptListener struct {
	events chan func() (net.Conn, error)
}

func (l *scriptListener) Accept() (net.Conn, error) {
	f, ok := <-l.events
	if !ok {
		return nil, net.ErrClosed
	}
	return f()
}
func (l *scriptListener) Close() error   { return nil }
func (l *scriptListener) Addr() net.Addr { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)} }

func TestAcceptBackoffRetriesTemporaryErrors(t *testing.T) {
	ln := &scriptListener{events: make(chan func() (net.Conn, error), 8)}
	for i := 0; i < 3; i++ {
		ln.events <- func() (net.Conn, error) { return nil, tempNetErr{} }
	}
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	ln.events <- func() (net.Conn, error) { return c1, nil }
	close(ln.events)

	reg := obs.NewRegistry()
	acceptErrors := reg.Counter("test_accept_errors_total", "")
	var handled atomic.Int32
	start := time.Now()
	acceptWithBackoff(ln, "test", quiet, acceptErrors, func(conn net.Conn) {
		handled.Add(1)
	})
	elapsed := time.Since(start)

	if got := handled.Load(); got != 1 {
		t.Errorf("handled %d conns, want 1", got)
	}
	if got := acceptErrors.Value(); got != 3 {
		t.Errorf("accept errors = %d, want 3", got)
	}
	// Three retries back off 5ms + 10ms + 20ms before the conn arrives.
	if elapsed < 35*time.Millisecond {
		t.Errorf("loop took %v, want >= 35ms of backoff across 3 transient errors", elapsed)
	}
}

func TestAcceptBackoffStopsOnPermanentError(t *testing.T) {
	ln := &scriptListener{events: make(chan func() (net.Conn, error), 1)}
	ln.events <- func() (net.Conn, error) { return nil, errors.New("permanent failure") }
	// The channel stays open: if the loop wrongly retried, it would block
	// here and the test would time out.
	reg := obs.NewRegistry()
	acceptErrors := reg.Counter("test_accept_errors_total", "")
	done := make(chan struct{})
	go func() {
		acceptWithBackoff(ln, "test", quiet, acceptErrors, func(net.Conn) {
			t.Error("handle called for a failed accept")
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("accept loop did not stop on a permanent error")
	}
	if got := acceptErrors.Value(); got != 1 {
		t.Errorf("accept errors = %d, want 1", got)
	}
}

// flakyListener fails the first N accepts with a transient error, then
// delegates to the real listener.
type flakyListener struct {
	net.Listener
	fails atomic.Int32
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.fails.Add(-1) >= 0 {
		return nil, tempNetErr{}
	}
	return l.Listener.Accept()
}

// TestServerSurvivesTransientAcceptErrors: a listener that throws a few
// transient failures must not kill the accept loop — a client connecting
// afterwards is served normally.
func TestServerSurvivesTransientAcceptErrors(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewServer(testCatalog())
	s.SetLogf(quiet)
	s.SetObserver(reg)
	ln := newLocalListener(t)
	fl := &flakyListener{Listener: ln}
	fl.fails.Store(3)
	s.Serve(fl)
	t.Cleanup(s.Close)

	client := &Client{Device: display.IPAQ5555()}
	res, err := client.Play(ln.Addr().String(), "night", 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames != 20 {
		t.Errorf("frames = %d, want 20", res.Frames)
	}
	if got := reg.Counter("stream_accept_errors_total", "", obs.L("role", "server")).Value(); got != 3 {
		t.Errorf("stream_accept_errors_total = %d, want 3", got)
	}
}

func TestProxySurvivesTransientAcceptErrors(t *testing.T) {
	_, upstream := startServer(t)
	reg := obs.NewRegistry()
	p := NewProxy(upstream)
	p.SetLogf(quiet)
	p.SetObserver(reg)
	ln := newLocalListener(t)
	fl := &flakyListener{Listener: ln}
	fl.fails.Store(2)
	p.Serve(fl)
	t.Cleanup(p.Close)

	client := &Client{Device: display.IPAQ5555()}
	res, err := client.Play(ln.Addr().String(), "night", 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames != 20 {
		t.Errorf("frames = %d, want 20", res.Frames)
	}
	if got := reg.Counter("stream_accept_errors_total", "", obs.L("role", "proxy")).Value(); got != 2 {
		t.Errorf("stream_accept_errors_total = %d, want 2", got)
	}
}

// bombSource panics when a frame is requested — a stand-in for any bug
// deep in the annotation path of one session.
type bombSource struct{ core.Source }

func (bombSource) Frame(i int) *frame.Frame { panic("bomb: synthetic session panic") }

// TestServerPanicIsolation: a panicking session must not take the
// process (or any other session) down. The panicking client fails, the
// next client gets a bit-identical stream, and the panic is counted.
func TestServerPanicIsolation(t *testing.T) {
	cat := testCatalog()
	cat["bomb"] = bombSource{cat["night"]}
	reg := obs.NewRegistry()
	s := NewServer(cat)
	s.SetLogf(quiet)
	s.SetObserver(reg)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	_, wantDigests, wantLevels := playRecorded(t, &Client{Device: display.IPAQ5555()}, addr.String())

	bombClient := &Client{Device: display.IPAQ5555(), Retry: RetryPolicy{MaxAttempts: 1}}
	if _, err := bombClient.Play(addr.String(), "bomb", 0.10); err == nil {
		t.Fatal("playing the panicking clip unexpectedly succeeded")
	}
	if got := reg.Counter("stream_session_panics_total", "", obs.L("role", "server")).Value(); got != 1 {
		t.Errorf("stream_session_panics_total = %d, want 1", got)
	}

	// The server is still alive and serves other sessions bit-identically.
	res, gotDigests, gotLevels := playRecorded(t, &Client{Device: display.IPAQ5555()}, addr.String())
	if res.Frames != 20 {
		t.Fatalf("frames after panic = %d, want 20", res.Frames)
	}
	for i := range wantDigests {
		if gotDigests[i] != wantDigests[i] || gotLevels[i] != wantLevels[i] {
			t.Fatalf("frame %d differs after another session panicked", i)
		}
	}
}

// TestServerAdmissionQueueAdmitsAfterSlotFrees: at capacity with a free
// queue slot, a connection waits instead of being shed — it succeeds
// with zero retries once the slot opens.
func TestServerAdmissionQueueAdmitsAfterSlotFrees(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewServer(testCatalog())
	s.SetLogf(quiet)
	s.SetObserver(reg)
	s.SetMaxSessions(1)
	s.SetAdmissionQueue(1, 2*time.Second)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	squatter, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer squatter.Close()
	active := reg.Gauge("stream_active_conns", "", obs.L("role", "server"))
	waitFor(t, "squatter to hold the slot", func() bool { return active.Value() >= 1 })

	go func() {
		time.Sleep(150 * time.Millisecond)
		squatter.Close()
	}()
	// MaxAttempts 1: the client has no retry budget, so it can only
	// succeed by riding the admission queue.
	client := &Client{Device: display.IPAQ5555(), Retry: RetryPolicy{MaxAttempts: 1}}
	res, err := client.Play(addr.String(), "night", 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries != 0 {
		t.Errorf("retries = %d, want 0 (admission must come from the queue)", res.Retries)
	}
	if res.Frames != 20 {
		t.Errorf("frames = %d, want 20", res.Frames)
	}
	if got := reg.Counter("stream_sessions_shed_total", "", obs.L("role", "server")).Value(); got != 0 {
		t.Errorf("stream_sessions_shed_total = %d, want 0", got)
	}
}

// TestServerShedsWhenQueueFull: with the slot and the only queue
// position both taken, the next connection is shed immediately.
func TestServerShedsWhenQueueFull(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewServer(testCatalog())
	s.SetLogf(quiet)
	s.SetObserver(reg)
	s.SetMaxSessions(1)
	s.SetAdmissionQueue(1, 5*time.Second)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	squatter, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer squatter.Close()
	active := reg.Gauge("stream_active_conns", "", obs.L("role", "server"))
	waitFor(t, "squatter to hold the slot", func() bool { return active.Value() >= 1 })

	waiter, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer waiter.Close()
	depth := reg.Gauge("stream_admission_queue_depth", "", obs.L("role", "server"))
	waitFor(t, "waiter to enter the queue", func() bool { return depth.Value() >= 1 })

	client := &Client{Device: display.IPAQ5555(), Retry: RetryPolicy{MaxAttempts: 1}}
	_, err = client.Play(addr.String(), "night", 0.10)
	if err == nil || !strings.Contains(err.Error(), "over capacity") {
		t.Fatalf("err = %v, want an over-capacity refusal with the queue full", err)
	}
	if got := reg.Counter("stream_sessions_shed_total", "", obs.L("role", "server")).Value(); got == 0 {
		t.Error("stream_sessions_shed_total = 0, want nonzero")
	}
}

// TestServerShedsOnQueueWaitDeadline: a queued connection whose slot
// never frees is shed once the wait deadline expires.
func TestServerShedsOnQueueWaitDeadline(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewServer(testCatalog())
	s.SetLogf(quiet)
	s.SetObserver(reg)
	s.SetMaxSessions(1)
	s.SetAdmissionQueue(4, 60*time.Millisecond)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	squatter, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer squatter.Close()
	active := reg.Gauge("stream_active_conns", "", obs.L("role", "server"))
	waitFor(t, "squatter to hold the slot", func() bool { return active.Value() >= 1 })

	start := time.Now()
	client := &Client{Device: display.IPAQ5555(), Retry: RetryPolicy{MaxAttempts: 1}}
	_, err = client.Play(addr.String(), "night", 0.10)
	if err == nil || !strings.Contains(err.Error(), "over capacity") {
		t.Fatalf("err = %v, want an over-capacity refusal after the wait deadline", err)
	}
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Errorf("shed after %v, want >= the 60ms queue wait", elapsed)
	}
}

// TestServerShutdownDrainsInFlight: Shutdown lets a mid-stream session
// finish (the client sees every frame) while readiness flips not-ready
// immediately and new connections are refused.
func TestServerShutdownDrainsInFlight(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewServer(testCatalog())
	s.SetLogf(quiet)
	s.SetObserver(reg)
	ln := newLocalListener(t)
	// Throttle the server's writes so the session is genuinely in flight
	// when Shutdown begins.
	s.Serve(faults.WrapListener(ln, faults.Config{Seed: 1, BandwidthBPS: 64 << 10}))
	t.Cleanup(s.Close)
	addr := ln.Addr().String()

	if err := s.Ready(); err != nil {
		t.Fatalf("Ready() = %v before shutdown, want nil", err)
	}

	firstFrame := make(chan struct{})
	var once sync.Once
	client := &Client{Device: display.IPAQ5555()}
	client.OnFrame = func(int, *frame.Frame, int) { once.Do(func() { close(firstFrame) }) }
	type playOut struct {
		res *PlayResult
		err error
	}
	playCh := make(chan playOut, 1)
	go func() {
		res, err := client.Play(addr, "night", 0.10)
		playCh <- playOut{res, err}
	}()
	<-firstFrame

	shutCh := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() { shutCh <- s.Shutdown(ctx) }()

	// Readiness flips immediately, long before the drain completes.
	waitFor(t, "Ready to fail once draining", func() bool { return s.Ready() != nil })
	if got := reg.Gauge("stream_draining", "", obs.L("role", "server")).Value(); got != 1 {
		t.Errorf("stream_draining = %v, want 1", got)
	}

	out := <-playCh
	if out.err != nil {
		t.Fatalf("in-flight session failed during drain: %v", out.err)
	}
	if out.res.Frames != 20 {
		t.Errorf("drained session delivered %d frames, want 20", out.res.Frames)
	}
	if err := <-shutCh; err != nil {
		t.Fatalf("Shutdown = %v, want nil (clean drain)", err)
	}
	// The listener is down: a new session cannot start.
	late := &Client{Device: display.IPAQ5555(), Retry: RetryPolicy{MaxAttempts: 1}}
	if _, err := late.Play(addr, "night", 0.10); err == nil {
		t.Error("a new session started after shutdown")
	}
}

// TestServerShutdownForcesAfterDeadline: a session that will not finish
// is cut when the drain context expires, and Shutdown reports it.
func TestServerShutdownForcesAfterDeadline(t *testing.T) {
	s := NewServer(testCatalog())
	s.SetLogf(quiet)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	// A connection that never sends its request pins a session in the
	// handshake read (10s default timeout, far beyond the drain budget).
	stuck, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer stuck.Close()
	waitFor(t, "stuck session to register", func() bool {
		s.mu.Lock()
		n := len(s.conns)
		s.mu.Unlock()
		return n >= 1
	})

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = s.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("forced shutdown took %v, want well under the handshake timeout", elapsed)
	}
}

// rawStreamSize measures the on-the-wire size of the clip's raw stream
// (calibrates mid-stream reset schedules).
func rawStreamSize(t *testing.T, addr string) int64 {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteRequest(conn, Request{Clip: "night", Device: "measure", Mode: ModeRaw}); err != nil {
		t.Fatal(err)
	}
	n, err := io.Copy(io.Discard, conn)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestChaosProxyFailoverBreakerLifecycle is the two-upstream chaos run:
// upstream A resets its first connection mid-stream, so the proxy's
// breaker for A trips open and the fetch fails over to B — the client
// sees a bit-identical stream and zero retries. A recovery probe then
// walks the breaker open -> half-open -> closed, after which fetches use
// A again.
func TestChaosProxyFailoverBreakerLifecycle(t *testing.T) {
	// Upstream B: healthy. Upstream A: first connection reset mid-stream.
	_, upstreamB := startServer(t)
	rawSize := rawStreamSize(t, upstreamB)
	if rawSize/2 < 512 {
		t.Fatalf("raw stream only %d bytes; reset budget would clip the handshake", rawSize)
	}
	srvA := NewServer(testCatalog())
	srvA.SetLogf(quiet)
	lnA := newLocalListener(t)
	srvA.Serve(faults.WrapListener(lnA, faults.Config{Seed: 7, ResetAfter: []int64{rawSize / 2}}))
	t.Cleanup(srvA.Close)
	upstreamA := lnA.Addr().String()

	// Reference stream through a proxy over B alone (the proxy re-encodes,
	// so the reference must come from a proxy, not the server).
	pRef := NewProxy(upstreamB)
	pRef.SetLogf(quiet)
	refAddr, err := pRef.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pRef.Close)
	_, wantDigests, wantLevels := playRecorded(t, &Client{Device: display.IPAQ5555()}, refAddr.String())

	// The proxy under test: A first, B as failover.
	reg := obs.NewRegistry()
	var tmu sync.Mutex
	var transitions []string
	p := NewProxy(upstreamA, upstreamB)
	p.SetLogf(quiet)
	p.SetObserver(reg)
	p.SetBreakerConfig(breaker.Config{
		Window: 10 * time.Second, Buckets: 10,
		FailureRate: 0.5, MinSamples: 1,
		OpenFor: 100 * time.Millisecond, HalfOpenProbes: 1, CloseAfter: 1,
		OnStateChange: func(from, to breaker.State) {
			tmu.Lock()
			transitions = append(transitions, from.String()+"->"+to.String())
			tmu.Unlock()
		},
	})
	p.SetProbeInterval(25 * time.Millisecond)
	addr, err := p.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)

	sawTransition := func(want string) bool {
		tmu.Lock()
		defer tmu.Unlock()
		for _, tr := range transitions {
			if tr == want {
				return true
			}
		}
		return false
	}

	// Play 1: A dies mid-fetch, the proxy fails over to B. The client
	// must not notice.
	res, gotDigests, gotLevels := playRecorded(t, &Client{Device: display.IPAQ5555()}, addr.String())
	if res.Retries != 0 {
		t.Errorf("client retries = %d, want 0 (failover must be invisible)", res.Retries)
	}
	if len(gotDigests) != len(wantDigests) {
		t.Fatalf("got %d frames, want %d", len(gotDigests), len(wantDigests))
	}
	for i := range wantDigests {
		if gotDigests[i] != wantDigests[i] || gotLevels[i] != wantLevels[i] {
			t.Fatalf("frame %d differs across failover", i)
		}
	}
	if got := reg.Counter("proxy_failovers_total", "", obs.L("role", "proxy")).Value(); got != 1 {
		t.Errorf("proxy_failovers_total = %d, want 1", got)
	}
	if !sawTransition("closed->open") {
		t.Fatalf("transitions = %v, want A's breaker to trip open", transitions)
	}

	// Recovery: the prober takes A's breaker open -> half-open -> closed.
	waitFor(t, "breaker to close after recovery probe", func() bool {
		return sawTransition("open->half-open") && sawTransition("half-open->closed")
	})
	if got := reg.Counter("proxy_upstream_probes_total", "", obs.L("role", "proxy")).Value(); got == 0 {
		t.Error("proxy_upstream_probes_total = 0, want nonzero")
	}
	if got := reg.Gauge("proxy_breaker_state", "",
		obs.L("role", "proxy"), obs.L("upstream", upstreamA)).Value(); got != 0 {
		t.Errorf("proxy_breaker_state{upstream=A} = %v, want 0 (closed)", got)
	}

	// Play 2: A is healthy again and serves without another failover.
	res2, gotDigests2, _ := playRecorded(t, &Client{Device: display.IPAQ5555()}, addr.String())
	if res2.Retries != 0 {
		t.Errorf("post-recovery retries = %d, want 0", res2.Retries)
	}
	for i := range wantDigests {
		if gotDigests2[i] != wantDigests[i] {
			t.Fatalf("frame %d differs after recovery", i)
		}
	}
	if got := reg.Counter("proxy_failovers_total", "", obs.L("role", "proxy")).Value(); got != 1 {
		t.Errorf("proxy_failovers_total = %d after recovery, want still 1 (A serves again)", got)
	}
}

// TestProxyReadyReflectsBreakers: readiness fails while every upstream
// breaker is open and recovers when one closes again.
func TestProxyReadyReflectsBreakers(t *testing.T) {
	p := NewProxy("127.0.0.1:1")
	p.SetLogf(quiet)
	p.SetBreakerConfig(breaker.Config{MinSamples: 1, OpenFor: time.Hour})
	p.SetProbeInterval(0) // no prober; the test drives the breaker by hand
	if err := p.Ready(); err == nil {
		t.Fatal("Ready() = nil before Serve, want not-serving")
	}
	ln := newLocalListener(t)
	p.Serve(ln)
	t.Cleanup(p.Close)
	if err := p.Ready(); err != nil {
		t.Fatalf("Ready() = %v while serving, want nil", err)
	}
	done, err := p.upstreams.Allow("127.0.0.1:1")
	if err != nil {
		t.Fatalf("breaker rejected the priming call: %v", err)
	}
	done(errors.New("upstream down")) // MinSamples 1: trips open
	err = p.Ready()
	if err == nil || !strings.Contains(err.Error(), "breakers open") {
		t.Fatalf("Ready() = %v with the only breaker open, want all-breakers-open", err)
	}
}

// waitFor polls cond until true or fails the test after a few seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// blockingSource is a catalog clip whose frames wait for release, so a
// digest of it stays in flight for as long as a test needs.
type blockingSource struct {
	core.Source
	entered, release chan struct{}
	once             sync.Once
}

func (b *blockingSource) Frame(i int) *frame.Frame {
	b.once.Do(func() { close(b.entered) })
	<-b.release
	return b.Source.Frame(i)
}

// TestDigestOfDoesNotBlockBehindColdClip: a digest renders the whole
// clip, so computing one must not hold the server-wide digest lock that
// every session's lookup, memoised ones included, goes through.
func TestDigestOfDoesNotBlockBehindColdClip(t *testing.T) {
	cat := testCatalog()
	night := cat["night"]
	slow := &blockingSource{Source: night, entered: make(chan struct{}), release: make(chan struct{})}
	cat["slow"] = slow
	s := NewServer(cat)
	want := s.digestOf("night", night)

	var release sync.Once
	defer release.Do(func() { close(slow.release) })
	slowDone := make(chan string, 1)
	go func() { slowDone <- s.digestOf("slow", slow) }()
	<-slow.entered

	done := make(chan string, 1)
	go func() { done <- s.digestOf("night", night) }()
	select {
	case got := <-done:
		if got != want {
			t.Errorf("memoised digest changed: %s, want %s", got, want)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("digestOf of a memoised clip blocked behind another clip's digest computation")
	}

	release.Do(func() { close(slow.release) })
	// Same frames as night, so the same content digest, now memoised.
	if got := <-slowDone; got != want {
		t.Errorf("slow clip digest %s, want %s", got, want)
	}
	if got := s.digestOf("slow", slow); got != want {
		t.Errorf("memoised slow digest %s, want %s", got, want)
	}
}
