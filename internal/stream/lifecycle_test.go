package stream

import (
	"context"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/anncache"
	"repro/internal/annstore"
	"repro/internal/breaker"
	"repro/internal/display"
	"repro/internal/frame"
	"repro/internal/obs"
)

// TestProxyShutdownStopsRecoveryProber is the prober-lifecycle
// regression: the upstream recovery prober must stop when the proxy
// drains — not keep dialing dead upstreams from a goroutine that
// outlives the node. Runs several cycles so a leaked goroutine
// accumulates visibly in the final count.
func TestProxyShutdownStopsRecoveryProber(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 4; i++ {
		reg := obs.NewRegistry()
		p := NewProxy("127.0.0.1:1") // nothing listens here: dials refuse instantly
		p.SetLogf(quiet)
		p.setProbeInterval(2 * time.Millisecond)
		p.setBreakerConfig(breaker.Config{
			Window: time.Second, Buckets: 4, FailureRate: 0.5,
			MinSamples: 1, OpenFor: 5 * time.Millisecond, HalfOpenProbes: 1, CloseAfter: 1,
		})
		p.retry = RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond}
		p.SetObserver(reg)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		p.Serve(ln)

		// Trip the upstream breaker so the prober has live work.
		client := &Client{Device: display.IPAQ5555(), Retry: RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond}}
		if _, err := client.Play(ln.Addr().String(), "night", 0.10); err == nil {
			t.Fatal("play against a dead upstream unexpectedly succeeded")
		}
		probes := func() uint64 {
			return reg.Counter("proxy_upstream_probes_total", "", obs.L("role", "proxy")).Value()
		}
		deadline := time.Now().Add(2 * time.Second)
		for probes() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("prober never probed the tripped upstream")
			}
			time.Sleep(time.Millisecond)
		}

		// Alternate graceful and immediate shutdown: both must reap the
		// prober before returning.
		if i%2 == 0 {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			if err := p.Shutdown(ctx); err != nil {
				t.Fatalf("shutdown: %v", err)
			}
			cancel()
		} else {
			p.Close()
		}
		settled := probes()
		time.Sleep(20 * time.Millisecond)
		if got := probes(); got != settled {
			t.Fatalf("prober still dialing after shutdown (%d -> %d probes)", settled, got)
		}
	}
	// Every prober (and accept loop) must be gone: the goroutine count
	// settles back to around the baseline instead of growing by one
	// leaked prober per cycle.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= base+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d at start, %d after 4 proxy lifecycles", base, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestZeroCopyServeSurvivesStoreEviction: a store eviction does not
// disturb in-memory serving. Sessions stream a cached variant from its
// sealed in-memory wire while an over-budget Put makes the store's LRU
// delete that variant's file; every session, and one started after the
// eviction, must get the bit-identical stream — never a short or corrupt
// one.
func TestZeroCopyServeSurvivesStoreEviction(t *testing.T) {
	st, err := annstore.Open(t.TempDir(), annstore.Options{MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	s := NewServer(testCatalog())
	s.SetLogf(quiet)
	s.SetStore(st)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	// First play computes the variant and writes it through to the
	// store; later sessions serve it from the memory cache's wire.
	ref := playDigests(t, addr.String(), 0.10, nil)

	const sessions = 6
	results := make([][]uint64, sessions)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var digests []uint64
			client := &Client{Device: display.IPAQ5555()}
			client.OnFrame = func(fi int, f *frame.Frame, backlight int) {
				if fi == 0 {
					digests = digests[:0]
				}
				digests = append(digests, frameDigest(f))
			}
			<-start
			if _, err := client.Play(addr.String(), "night", 0.10); err != nil {
				t.Errorf("session %d: %v", i, err)
				return
			}
			results[i] = digests
		}(i)
	}
	// An eviction-sized Put races the sessions: it pushes the store
	// over budget and the LRU deletes every other artifact file —
	// including the variant being served.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		filler := make([]byte, (1<<20)-4096)
		if err := st.Put(anncache.Key{Kind: "filler", Digest: "x", Quality: -1}, filler); err != nil {
			t.Errorf("eviction put: %v", err)
		}
	}()
	close(start)
	wg.Wait()

	for i, got := range results {
		if got == nil {
			t.Fatalf("session %d produced no frames", i)
		}
		assertSameDigests(t, ref, got, "session racing eviction")
		_ = i
	}
	// The variant's file is gone; a fresh session must still be served
	// bit-identically from memory.
	if _, ok := st.GetRef(anncache.Key{Kind: "variant", Digest: "nonexistent", Quality: 0}); ok {
		t.Fatal("GetRef invented a ref for a missing key")
	}
	again := playDigests(t, addr.String(), 0.10, nil)
	assertSameDigests(t, ref, again, "post-eviction session")
}
