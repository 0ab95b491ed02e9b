package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/breaker"
)

// PeerSetConfig tunes a PeerSet. Every role that reaches other nodes —
// a cluster member its peers, a proxy its upstream origins — shares the
// breaker, dial and probe machinery; the hooks are where a role plugs
// in its own metrics and logs.
type PeerSetConfig struct {
	// Breaker tunes every peer's breaker. Zero MinSamples and OpenFor
	// get the peer defaults (2 samples, 3s open): a dead peer is cheap
	// to route around, so it trips faster than the breaker package's
	// own defaults. Its OnStateChange is chained after the set's hook.
	Breaker breaker.Config
	// Dial connects to a peer; nil dials TCP bounded by DialTimeout.
	Dial        func(network, addr string) (net.Conn, error)
	DialTimeout time.Duration
	// ProbeEvery is how often the prober dials peers whose breaker is
	// not closed (0 disables probing).
	ProbeEvery time.Duration
	// OnStateChange observes every peer breaker transition; OnProbe is
	// called once per recovery probe.
	OnStateChange func(addr string, from, to breaker.State)
	OnProbe       func()
}

// peer is one remote address with its health breaker.
type peer struct {
	addr string
	br   *breaker.Breaker
}

// PeerSet is a fixed, ordered list of remote addresses, each guarded by
// its own circuit breaker, plus a recovery prober that dial-probes
// unhealthy peers back to closed without waiting for traffic to route
// there. All methods are safe for concurrent use.
type PeerSet struct {
	cfg   PeerSetConfig
	peers []peer

	mu         sync.Mutex
	stop, done chan struct{}
}

// NewPeerSet builds a set over addrs in order, every breaker Closed.
func NewPeerSet(addrs []string, cfg PeerSetConfig) *PeerSet {
	s := &PeerSet{cfg: cfg}
	bc := cfg.Breaker
	if bc.MinSamples <= 0 {
		bc.MinSamples = 2
	}
	if bc.OpenFor <= 0 {
		bc.OpenFor = 3 * time.Second
	}
	user := bc.OnStateChange
	for _, a := range addrs {
		pc := bc
		pc.OnStateChange = func(from, to breaker.State) {
			if cfg.OnStateChange != nil {
				cfg.OnStateChange(a, from, to)
			}
			if user != nil {
				user(from, to)
			}
		}
		s.peers = append(s.peers, peer{addr: a, br: breaker.New(pc)})
	}
	return s
}

// Addrs returns the peer addresses in set order.
func (s *PeerSet) Addrs() []string {
	out := make([]string, len(s.peers))
	for i, p := range s.peers {
		out[i] = p.addr
	}
	return out
}

func (s *PeerSet) find(addr string) *breaker.Breaker {
	for _, p := range s.peers {
		if p.addr == addr {
			return p.br
		}
	}
	return nil
}

// State returns addr's breaker state; an address outside the set reads
// Open, since it is never admitted.
func (s *PeerSet) State(addr string) breaker.State {
	if br := s.find(addr); br != nil {
		return br.State()
	}
	return breaker.Open
}

// AllOpen reports whether the set is non-empty and every breaker in it
// is open — nothing left to fail over to.
func (s *PeerSet) AllOpen() bool {
	for _, p := range s.peers {
		if p.br.State() != breaker.Open {
			return false
		}
	}
	return len(s.peers) > 0
}

// Allow admits one call to addr through its breaker. The returned done
// MUST be called exactly once with the call's error: nil or a clean
// ErrNotFound (a healthy peer answering "not here, compute it
// yourself") settles the breaker as a success, anything else counts
// against the peer. A non-member or a rejecting breaker returns an
// ErrPeerUnavailable error and no done.
func (s *PeerSet) Allow(addr string) (done func(error), err error) {
	br := s.find(addr)
	if br == nil {
		return nil, fmt.Errorf("%w: %s is not a member", ErrPeerUnavailable, addr)
	}
	brDone, ok := br.Allow()
	if !ok {
		return nil, fmt.Errorf("%w: breaker open for %s", ErrPeerUnavailable, addr)
	}
	return func(err error) { brDone(err == nil || errors.Is(err, ErrNotFound)) }, nil
}

// Dial connects to addr through the set's dial function.
func (s *PeerSet) Dial(addr string) (net.Conn, error) {
	if s.cfg.Dial != nil {
		return s.cfg.Dial("tcp", addr)
	}
	return net.DialTimeout("tcp", addr, s.cfg.DialTimeout)
}

// Start launches the recovery prober: every ProbeEvery, each peer whose
// breaker is not Closed is dial-probed, driving it open -> half-open ->
// closed as the peer comes back. Idempotent; a no-op when probing is
// disabled or the set is empty.
func (s *PeerSet) Start() {
	if s.cfg.ProbeEvery <= 0 || len(s.peers) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stop != nil {
		return
	}
	s.stop, s.done = make(chan struct{}), make(chan struct{})
	go s.probeLoop(s.stop, s.done)
}

func (s *PeerSet) probeLoop(stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(s.cfg.ProbeEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			for _, p := range s.peers {
				if p.br.State() == breaker.Closed {
					continue
				}
				brDone, ok := p.br.Allow()
				if !ok {
					continue
				}
				if s.cfg.OnProbe != nil {
					s.cfg.OnProbe()
				}
				conn, err := s.Dial(p.addr)
				if err == nil {
					conn.Close()
				}
				brDone(err == nil)
			}
		}
	}
}

// Stop halts the prober and waits for it to exit, so no probe dial
// happens once Stop returns. Idempotent and a no-op before Start —
// shutdown paths call it unconditionally.
func (s *PeerSet) Stop() {
	s.mu.Lock()
	stop, done := s.stop, s.done
	s.stop, s.done = nil, nil
	s.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}
