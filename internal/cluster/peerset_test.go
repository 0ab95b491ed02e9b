package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/breaker"
)

// fastBreaker trips on one failure and admits a half-open probe 10ms
// later, so prober tests run in milliseconds.
var fastBreaker = breaker.Config{
	Window: time.Second, Buckets: 4, FailureRate: 0.5,
	MinSamples: 1, OpenFor: 10 * time.Millisecond, HalfOpenProbes: 1, CloseAfter: 1,
}

// trip drives addr's breaker open with one failed call.
func trip(t *testing.T, s *PeerSet, addr string) {
	t.Helper()
	done, err := s.Allow(addr)
	if err != nil {
		t.Fatalf("closed breaker rejected a call: %v", err)
	}
	done(errors.New("injected failure"))
	if st := s.State(addr); st != breaker.Open {
		t.Fatalf("breaker %v after a failure with MinSamples 1, want Open", st)
	}
}

// waitUntil polls cond until true or fails the test after two seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestPeerSetStartStopLifecycle(t *testing.T) {
	var dials atomic.Int64
	peer := "127.0.0.1:7493"
	s := NewPeerSet([]string{peer}, PeerSetConfig{
		Breaker:    fastBreaker,
		ProbeEvery: 5 * time.Millisecond,
		Dial: func(network, addr string) (net.Conn, error) {
			dials.Add(1)
			return nil, errors.New("down")
		},
	})
	s.Stop() // Stop before Start must be a no-op
	// Trip the breaker so the prober has something to probe.
	trip(t, s, peer)
	s.Start()
	s.Start() // idempotent
	waitUntil(t, "three probe dials", func() bool { return dials.Load() >= 3 })
	s.Stop()
	s.Stop() // idempotent
	after := dials.Load()
	time.Sleep(30 * time.Millisecond)
	if final := dials.Load(); final != after {
		t.Fatalf("prober kept dialing after Stop (%d -> %d)", after, final)
	}
}

func TestPeerSetProberWalksOpenToClosed(t *testing.T) {
	var (
		mu        sync.Mutex
		hooked    []string // the set's per-address hook
		user      []string // the caller's own breaker callback
		probes    atomic.Int64
		reachable atomic.Bool
	)
	cfg := fastBreaker
	cfg.OnStateChange = func(from, to breaker.State) {
		mu.Lock()
		user = append(user, from.String()+"->"+to.String())
		mu.Unlock()
	}
	peer := "127.0.0.1:7494"
	s := NewPeerSet([]string{peer}, PeerSetConfig{
		Breaker:    cfg,
		ProbeEvery: 5 * time.Millisecond,
		Dial: func(network, addr string) (net.Conn, error) {
			if !reachable.Load() {
				return nil, errors.New("down")
			}
			c1, c2 := net.Pipe()
			c2.Close()
			return c1, nil
		},
		OnStateChange: func(addr string, from, to breaker.State) {
			mu.Lock()
			hooked = append(hooked, fmt.Sprintf("%s:%s->%s", addr, from, to))
			mu.Unlock()
		},
		OnProbe: func() { probes.Add(1) },
	})
	trip(t, s, peer)
	if !s.AllOpen() {
		t.Fatal("AllOpen() = false with the only breaker open")
	}
	s.Start()
	defer s.Stop()
	// While the peer stays down the prober keeps it open (half-open
	// probes fail straight back); once it answers, one probe closes it.
	waitUntil(t, "a failed probe", func() bool { return probes.Load() >= 1 })
	reachable.Store(true)
	waitUntil(t, "the breaker to close", func() bool { return s.State(peer) == breaker.Closed })
	if s.AllOpen() {
		t.Fatal("AllOpen() = true after recovery")
	}

	mu.Lock()
	defer mu.Unlock()
	want := []string{"closed->open", "open->half-open", "half-open->closed"}
	for _, w := range want {
		if !contains(user, w) {
			t.Errorf("caller's OnStateChange missed %s (saw %v)", w, user)
		}
		if !contains(hooked, peer+":"+w) {
			t.Errorf("set hook missed %s:%s (saw %v)", peer, w, hooked)
		}
	}
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

func TestPeerSetNotFoundSettlesHealthy(t *testing.T) {
	peer, other := "127.0.0.1:7495", "127.0.0.1:7496"
	s := NewPeerSet([]string{peer, other}, PeerSetConfig{Breaker: fastBreaker})
	// A clean miss is a healthy peer answering "compute it yourself":
	// however many arrive, the breaker stays closed.
	for i := 0; i < 10; i++ {
		done, err := s.Allow(peer)
		if err != nil {
			t.Fatalf("call %d rejected: %v", i, err)
		}
		done(fmt.Errorf("%w: cold owner", ErrNotFound))
	}
	if st := s.State(peer); st != breaker.Closed {
		t.Fatalf("breaker %v after clean misses, want Closed", st)
	}
	// Any other failure counts against the peer.
	trip(t, s, other)
	if _, err := s.Allow(other); !errors.Is(err, ErrPeerUnavailable) {
		t.Fatalf("open breaker admitted a call: %v", err)
	}
	if _, err := s.Allow("127.0.0.1:1"); !errors.Is(err, ErrPeerUnavailable) {
		t.Fatalf("non-member admitted: %v", err)
	}
	if st := s.State("127.0.0.1:1"); st != breaker.Open {
		t.Fatalf("non-member state %v, want Open", st)
	}
}
