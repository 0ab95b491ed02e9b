// Package faults injects deterministic network faults into net.Conn and
// net.Listener values: added latency, bandwidth throttling, fragmented
// (short) writes, mid-stream connection resets and byte corruption. The
// stream stack's resilience work (deadlines, retry/backoff, session
// resume, graceful degradation) is only trustworthy if it is exercised,
// and real handheld radio links are exactly this hostile; the injector
// makes those conditions reproducible — every fault decision derives
// from a seed, so a failing chaos run replays bit-for-bit.
//
// The wrappers are usable both from tests (wrap a Dialer or Listener)
// and live via the -faults flag on cmd/streamd.
package faults

import (
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Config describes the faults to inject. The zero value injects nothing.
type Config struct {
	// Seed makes every random decision reproducible. Connections are
	// numbered in accept/dial order and each derives its own RNG from
	// Seed and its ordinal, so concurrent connections stay deterministic
	// independently of scheduling.
	Seed int64
	// Latency is added once per Read and per Write call.
	Latency time.Duration
	// BandwidthBPS throttles each direction to roughly this many bytes
	// per second (0 = unlimited).
	BandwidthBPS int
	// ThrottlePhases, when set, replaces BandwidthBPS with a
	// byte-scheduled bandwidth profile: each connection counts its
	// cumulative bytes (both directions) and throttles at the current
	// phase's rate, advancing when the phase's byte length is spent. The
	// last phase is open-ended. This is how chaos tests script "link
	// collapses, then recovers" against a deterministic byte position
	// instead of a wall-clock timer.
	ThrottlePhases []ThrottlePhase
	// ShortWrites fragments every Write into small chunks written
	// separately, so peers observe short reads at arbitrary offsets.
	ShortWrites bool
	// CorruptRate is the per-Write probability of flipping one bit in
	// the outgoing chunk (0 = never).
	CorruptRate float64
	// ResetAfter is a per-connection schedule of byte budgets: the n-th
	// wrapped connection is reset (underlying conn closed, ECONNRESET
	// returned) once budget bytes have crossed it in either direction.
	// Connections beyond the schedule are not reset unless ResetRepeat
	// is set, in which case the schedule cycles.
	ResetAfter []int64
	// ResetRepeat cycles ResetAfter for connections past its end.
	ResetRepeat bool
}

// ThrottlePhase is one leg of a phased bandwidth profile.
type ThrottlePhase struct {
	// Bytes is the phase length: how many connection bytes it covers
	// before the next phase takes over. 0 means open-ended (legal only
	// for the final phase).
	Bytes int64
	// BPS is the throttle during the phase (0 = unlimited).
	BPS int
}

// Enabled reports whether the config injects any fault at all.
func (c Config) Enabled() bool {
	return c.Latency > 0 || c.BandwidthBPS > 0 || len(c.ThrottlePhases) > 0 ||
		c.ShortWrites || c.CorruptRate > 0 || len(c.ResetAfter) > 0
}

// String renders the config in ParseConfig's syntax.
func (c Config) String() string {
	var parts []string
	if c.Latency > 0 {
		parts = append(parts, "latency="+c.Latency.String())
	}
	if c.BandwidthBPS > 0 {
		parts = append(parts, fmt.Sprintf("bw=%d", c.BandwidthBPS))
	}
	if len(c.ThrottlePhases) > 0 {
		s := make([]string, len(c.ThrottlePhases))
		for i, p := range c.ThrottlePhases {
			s[i] = fmt.Sprintf("%d@%d", p.Bytes, p.BPS)
		}
		parts = append(parts, "phases="+strings.Join(s, ":"))
	}
	if c.ShortWrites {
		parts = append(parts, "short")
	}
	if c.CorruptRate > 0 {
		parts = append(parts, fmt.Sprintf("corrupt=%g", c.CorruptRate))
	}
	if len(c.ResetAfter) > 0 {
		s := make([]string, len(c.ResetAfter))
		for i, v := range c.ResetAfter {
			s[i] = strconv.FormatInt(v, 10)
		}
		parts = append(parts, "reset="+strings.Join(s, ":"))
	}
	if c.ResetRepeat {
		parts = append(parts, "repeat")
	}
	parts = append(parts, fmt.Sprintf("seed=%d", c.Seed))
	return strings.Join(parts, ",")
}

// ParseConfig parses the -faults flag syntax: comma-separated
// key=value items.
//
//	latency=2ms           added delay per Read/Write
//	bw=65536              throttle to N bytes/second
//	phases=65536@8192:0@0 phased throttle: bytes@bps legs, last open-ended
//	short                 fragment writes into small chunks
//	corrupt=0.01       per-write bit-flip probability
//	reset=4096:8192    reset the n-th connection after its budget
//	repeat             cycle the reset schedule over all connections
//	seed=7             deterministic RNG seed
func ParseConfig(s string) (Config, error) {
	var c Config
	s = strings.TrimSpace(s)
	if s == "" {
		return c, nil
	}
	for _, item := range strings.Split(s, ",") {
		key, val, hasVal := strings.Cut(strings.TrimSpace(item), "=")
		switch key {
		case "latency":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return c, fmt.Errorf("faults: bad latency %q", val)
			}
			c.Latency = d
		case "bw":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return c, fmt.Errorf("faults: bad bandwidth %q", val)
			}
			c.BandwidthBPS = n
		case "phases":
			for _, leg := range strings.Split(val, ":") {
				bs, rs, ok := strings.Cut(leg, "@")
				if !ok {
					return c, fmt.Errorf("faults: bad phase %q (want bytes@bps)", leg)
				}
				bytes, err := strconv.ParseInt(bs, 10, 64)
				if err != nil || bytes < 0 {
					return c, fmt.Errorf("faults: bad phase bytes %q", bs)
				}
				bps, err := strconv.Atoi(rs)
				if err != nil || bps < 0 {
					return c, fmt.Errorf("faults: bad phase rate %q", rs)
				}
				c.ThrottlePhases = append(c.ThrottlePhases, ThrottlePhase{Bytes: bytes, BPS: bps})
			}
			for i, p := range c.ThrottlePhases {
				if p.Bytes == 0 && i != len(c.ThrottlePhases)-1 {
					return c, fmt.Errorf("faults: open-ended phase %d before the last", i)
				}
			}
		case "short":
			if hasVal {
				return c, fmt.Errorf("faults: short takes no value")
			}
			c.ShortWrites = true
		case "corrupt":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p < 0 || p > 1 {
				return c, fmt.Errorf("faults: bad corrupt rate %q", val)
			}
			c.CorruptRate = p
		case "reset":
			for _, b := range strings.Split(val, ":") {
				n, err := strconv.ParseInt(b, 10, 64)
				if err != nil || n <= 0 {
					return c, fmt.Errorf("faults: bad reset budget %q", b)
				}
				c.ResetAfter = append(c.ResetAfter, n)
			}
		case "repeat":
			if hasVal {
				return c, fmt.Errorf("faults: repeat takes no value")
			}
			c.ResetRepeat = true
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return c, fmt.Errorf("faults: bad seed %q", val)
			}
			c.Seed = n
		default:
			return c, fmt.Errorf("faults: unknown item %q", item)
		}
	}
	return c, nil
}

// ErrInjectedReset marks a connection the injector reset mid-stream. It
// wraps syscall.ECONNRESET so errors.Is(err, syscall.ECONNRESET) holds,
// matching what a real peer reset produces.
var ErrInjectedReset = fmt.Errorf("faults: injected reset: %w", syscall.ECONNRESET)

// Injector hands out fault-wrapped connections, numbering them so every
// connection's faults are deterministic. One Injector is shared by a
// Listener (server side) or Dialer (client side).
type Injector struct {
	cfg  Config
	next atomic.Int64
}

// NewInjector builds an injector over cfg.
func NewInjector(cfg Config) *Injector { return &Injector{cfg: cfg} }

// Wrap wraps one connection with the injector's faults. Each call
// consumes the next connection ordinal.
func (in *Injector) Wrap(c net.Conn) net.Conn {
	ord := in.next.Add(1) - 1
	fc := &conn{
		Conn: c,
		cfg:  in.cfg,
		rng:  rand.New(rand.NewSource(in.cfg.Seed ^ (ord+1)*0x5851F42D4C957F2D)),
	}
	fc.budget = int64(-1)
	if n := len(in.cfg.ResetAfter); n > 0 {
		if int(ord) < n {
			fc.budget = in.cfg.ResetAfter[ord]
		} else if in.cfg.ResetRepeat {
			fc.budget = in.cfg.ResetAfter[int(ord)%n]
		}
	}
	return fc
}

// listener wraps Accept with fault injection.
type listener struct {
	net.Listener
	in *Injector
}

// WrapListener returns a listener whose accepted connections carry the
// injector's faults. If cfg injects nothing, ln is returned unchanged.
func WrapListener(ln net.Listener, cfg Config) net.Listener {
	if !cfg.Enabled() {
		return ln
	}
	return &listener{Listener: ln, in: NewInjector(cfg)}
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.in.Wrap(c), nil
}

// Dialer returns a dial function that wraps every new connection with
// the injector's faults (for client-side chaos in tests).
func (in *Injector) Dialer(dial func(network, addr string) (net.Conn, error)) func(network, addr string) (net.Conn, error) {
	if dial == nil {
		dial = net.Dial
	}
	return func(network, addr string) (net.Conn, error) {
		c, err := dial(network, addr)
		if err != nil {
			return nil, err
		}
		return in.Wrap(c), nil
	}
}

// conn injects faults into one connection. Reads and writes may run
// concurrently (one goroutine each, as net.Conn allows); the RNG and
// byte budget are locked.
type conn struct {
	net.Conn
	cfg Config

	mu     sync.Mutex
	rng    *rand.Rand
	budget int64 // remaining bytes before reset; -1 = never
	reset  bool

	// Phased-throttle cursor: current phase and bytes spent inside it.
	// Both directions share the counter, so the profile is a property of
	// the connection, not of each half.
	phase      int
	phaseSpent int64
}

// spend consumes n bytes of the reset budget, returning how many of them
// fit and whether the budget is now exhausted.
func (c *conn) spend(n int) (allowed int, exhausted bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.reset {
		return 0, true
	}
	if c.budget < 0 {
		return n, false
	}
	if int64(n) <= c.budget {
		c.budget -= int64(n)
		return n, false
	}
	allowed = int(c.budget)
	c.budget = 0
	c.reset = true
	return allowed, true
}

// refund returns unused budget (a Read that asked for more than
// arrived).
func (c *conn) refund(n int) {
	if n <= 0 {
		return
	}
	c.mu.Lock()
	if c.budget >= 0 && !c.reset {
		c.budget += int64(n)
	}
	c.mu.Unlock()
}

func (c *conn) throttle(n int) {
	if n <= 0 {
		return
	}
	if len(c.cfg.ThrottlePhases) > 0 {
		c.throttlePhased(n)
		return
	}
	if c.cfg.BandwidthBPS > 0 {
		time.Sleep(time.Duration(float64(n) / float64(c.cfg.BandwidthBPS) * float64(time.Second)))
	}
}

// throttlePhased charges n bytes against the phase schedule, sleeping
// for however long the bytes take at each phase's rate. A chunk that
// straddles a boundary pays each phase its share.
func (c *conn) throttlePhased(n int) {
	var sleep float64
	c.mu.Lock()
	for n > 0 {
		ph := c.cfg.ThrottlePhases[c.phase]
		take := n
		last := c.phase == len(c.cfg.ThrottlePhases)-1
		if ph.Bytes > 0 && !last {
			if left := ph.Bytes - c.phaseSpent; int64(take) > left {
				take = int(left)
			}
		}
		if ph.BPS > 0 {
			sleep += float64(take) / float64(ph.BPS)
		}
		c.phaseSpent += int64(take)
		n -= take
		if !last && ph.Bytes > 0 && c.phaseSpent >= ph.Bytes {
			c.phase++
			c.phaseSpent = 0
		}
	}
	c.mu.Unlock()
	if sleep > 0 {
		time.Sleep(time.Duration(sleep * float64(time.Second)))
	}
}

func (c *conn) Read(p []byte) (int, error) {
	if c.cfg.Latency > 0 {
		time.Sleep(c.cfg.Latency)
	}
	allowed, exhausted := c.spend(len(p))
	if allowed == 0 && exhausted {
		c.Conn.Close()
		return 0, ErrInjectedReset
	}
	n, err := c.Conn.Read(p[:allowed])
	c.throttle(n)
	if exhausted && err == nil {
		// Deliver the last bytes, then kill the connection so the next
		// Read observes the reset.
		c.Conn.Close()
	} else {
		c.refund(allowed - n)
	}
	return n, err
}

func (c *conn) Write(p []byte) (int, error) {
	if c.cfg.Latency > 0 {
		time.Sleep(c.cfg.Latency)
	}
	written := 0
	for written < len(p) {
		chunk := p[written:]
		if c.cfg.ShortWrites {
			c.mu.Lock()
			limit := 1 + c.rng.Intn(16)
			c.mu.Unlock()
			if len(chunk) > limit {
				chunk = chunk[:limit]
			}
		}
		allowed, exhausted := c.spend(len(chunk))
		if allowed == 0 && exhausted {
			c.Conn.Close()
			return written, ErrInjectedReset
		}
		chunk = chunk[:allowed]
		chunk = c.maybeCorrupt(chunk)
		n, err := c.Conn.Write(chunk)
		written += n
		c.throttle(n)
		if err != nil {
			return written, err
		}
		if exhausted {
			c.Conn.Close()
			return written, ErrInjectedReset
		}
	}
	return written, nil
}

// maybeCorrupt flips one bit of the chunk (on a copy) with the
// configured probability.
func (c *conn) maybeCorrupt(chunk []byte) []byte {
	if c.cfg.CorruptRate <= 0 || len(chunk) == 0 {
		return chunk
	}
	c.mu.Lock()
	hit := c.rng.Float64() < c.cfg.CorruptRate
	var at, bit int
	if hit {
		at = c.rng.Intn(len(chunk))
		bit = c.rng.Intn(8)
	}
	c.mu.Unlock()
	if !hit {
		return chunk
	}
	out := make([]byte, len(chunk))
	copy(out, chunk)
	out[at] ^= 1 << bit
	return out
}
