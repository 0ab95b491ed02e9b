package stream

import (
	"sync"
	"testing"

	"repro/internal/display"
	"repro/internal/obs"
)

// TestSetLogfConcurrentWithSessions replaces the logger while sessions
// are active and erroring — the data race the unguarded logf field used
// to have (run with -race).
func TestSetLogfConcurrentWithSessions(t *testing.T) {
	s := NewServer(testCatalog())
	s.SetLogf(quiet)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				s.SetLogf(func(string, ...any) {})
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &Client{Device: display.IPAQ5555()}
			client.Play(addr.String(), "night", 0.1)
			// Unknown clips force the server's error-logging path.
			client.Play(addr.String(), "no-such-clip", 0.1)
		}()
	}
	wg.Wait()

	p := NewProxy(addr.String())
	p.SetLogf(quiet)
	proxyAddr, err := p.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				p.SetLogf(func(string, ...any) {})
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &Client{Device: display.IPAQ5555()}
			client.Play(proxyAddr.String(), "night", 0.1)
		}()
	}
	wg.Wait()
}

func TestServerTelemetryCounts(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewServer(testCatalog())
	s.SetLogf(quiet)
	s.SetObserver(reg)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	client := &Client{Device: display.IPAQ5555()}
	for i := 0; i < 2; i++ {
		if _, err := client.Play(addr.String(), "night", 0.1); err != nil {
			t.Fatal(err)
		}
	}

	role := obs.L("role", "server")
	// Play returns once the client has read the stream; the server's
	// session goroutine tears down (and drops the gauge) just after.
	// Waiting for the gauge also settles every counter bumped before it.
	active := reg.Gauge("stream_active_conns", "", role)
	waitFor(t, "server sessions to end", func() bool { return active.Value() == 0 })
	if got := reg.Counter("stream_conns_total", "", role).Value(); got != 2 {
		t.Errorf("conns_total = %d, want 2", got)
	}
	if got := reg.Counter("stream_frames_sent_total", "", role).Value(); got != 40 {
		t.Errorf("frames_sent_total = %d, want 40 (2 sessions x 20 frames)", got)
	}
	if got := reg.Counter("stream_bytes_sent_total", "", role).Value(); got == 0 {
		t.Error("bytes_sent_total = 0")
	}
	// Each artifact kind — track, variant, device levels — misses once on
	// the first play and hits once on the replay.
	for _, kind := range []string{"track", "variant", "levels"} {
		k := obs.L("kind", kind)
		hits := reg.Counter("anncache_hits_total", "", k, role).Value()
		misses := reg.Counter("anncache_misses_total", "", k, role).Value()
		if misses != 1 || hits != 1 {
			t.Errorf("%s cache hits/misses = %d/%d, want 1/1", kind, hits, misses)
		}
	}
	if got := reg.Gauge("anncache_entries", "", role).Value(); got != 3 {
		t.Errorf("anncache_entries = %v, want 3 (track+variant+levels)", got)
	}
	if got := reg.Histogram(obs.SpanMetric, "", nil, obs.L("span", "annotate.scene_detect")).Count(); got != 1 {
		t.Errorf("annotate.scene_detect span count = %d, want 1 (cached on replay)", got)
	}
}

// TestUninstrumentedServerStillWorks pins the nil/no-op default: no
// SetObserver call, metrics stay nil, streaming is unaffected.
func TestUninstrumentedServerStillWorks(t *testing.T) {
	s, addr := startServer(t)
	if s.obsReg != nil {
		t.Fatal("server has a registry without SetObserver")
	}
	client := &Client{Device: display.IPAQ5555()}
	res, err := client.Play(addr, "night", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames != 20 {
		t.Errorf("frames = %d, want 20", res.Frames)
	}
}

// TestAcceptLoopSurvivesListenerClose exercises the net.ErrClosed
// branch: closing must not bump the accept-error counter.
func TestAcceptLoopSurvivesListenerClose(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewServer(testCatalog())
	s.SetLogf(quiet)
	s.SetObserver(reg)
	if _, err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if got := reg.Counter("stream_accept_errors_total", "", obs.L("role", "server")).Value(); got != 0 {
		t.Errorf("accept_errors_total = %d after orderly close, want 0", got)
	}

	p := NewProxy("127.0.0.1:1")
	p.SetLogf(quiet)
	p.SetObserver(reg)
	if _, err := p.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	p.Close()
	if got := reg.Counter("stream_accept_errors_total", "", obs.L("role", "proxy")).Value(); got != 0 {
		t.Errorf("proxy accept_errors_total = %d after orderly close, want 0", got)
	}
}
