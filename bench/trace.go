package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/frame"
)

// tracer records spans at the seams the layers expose to their callers:
// the catalog's core.Source, the listener each node serves, the client,
// cluster and proxy dial functions, and the client's frame callback.
// Nothing inside the program is instrumented; spans live in memory and
// are written out as JSON lines when the run ends.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	nextID int64
	// conns maps a client connection's (client port, server port) to
	// its session, so the server side of the connection can be
	// attributed.
	conns map[[2]int]int
	// streams holds whole response streams of the first few fixed-rung
	// sessions, for the decode replay.
	streams    [][]byte
	wantStream int
	// calls counts Frame calls per catalog clip.
	calls  map[string]*atomic.Int64
	frames map[string]int
}

type span struct {
	id, parent int64
	session    int // -1 when no client session caused it
	name       string
	start, end time.Time
	bytes      int64
}

const maxStreams = 6

func newTracer() *tracer {
	return &tracer{
		t0:         time.Now(),
		nextID:     1 << 40,
		conns:      map[[2]int]int{},
		wantStream: maxStreams,
		calls:      map[string]*atomic.Int64{},
		frames:     map[string]int{},
	}
}

// sessionID is the span id of session i's root span.
func sessionID(i int) int64 { return int64(i) + 1 }

func (tr *tracer) add(s span) {
	tr.mu.Lock()
	if s.id == 0 {
		s.id = tr.nextID
		tr.nextID++
	}
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

func port(a net.Addr) int {
	if t, ok := a.(*net.TCPAddr); ok {
		return t.Port
	}
	return 0
}

// --- catalog seam ---------------------------------------------------------

// countingSource counts the renders the serving side asks of a clip.
type countingSource struct {
	core.Source
	calls *atomic.Int64
}

func (s countingSource) Frame(i int) *frame.Frame {
	s.calls.Add(1)
	return s.Source.Frame(i)
}

// sources wraps every catalog clip in a counting source (the catalog
// itself when untraced).
func (tr *tracer) sources(cat *catalog) map[string]core.Source {
	if tr == nil {
		return cat.srcs
	}
	out := make(map[string]core.Source, len(cat.srcs))
	for name, src := range cat.srcs {
		c := tr.calls[name]
		if c == nil {
			c = new(atomic.Int64)
			tr.calls[name] = c
			tr.frames[name] = src.TotalFrames()
		}
		out[name] = countingSource{Source: src, calls: c}
	}
	return out
}

// renders snapshots the per-clip render counts.
func (tr *tracer) renders() map[string]int64 {
	out := make(map[string]int64, len(tr.calls))
	for name, c := range tr.calls {
		out[name] = c.Load()
	}
	return out
}

// --- client seam ----------------------------------------------------------

// sessionTrace traces one client session through Client.Dial and the
// session's start, first frame and end.
type sessionTrace struct {
	tr     *tracer
	idx    int
	record bool
	buf    *[]byte
}

// begin returns the trace handle of a timed session (nil when
// untraced). The first few fixed-rung sessions also record their
// response stream.
func (tr *tracer) begin(s spec) *sessionTrace {
	if tr == nil {
		return nil
	}
	st := &sessionTrace{tr: tr, idx: s.idx}
	if !s.adaptive {
		tr.mu.Lock()
		if tr.wantStream > 0 {
			tr.wantStream--
			st.record = true
		}
		tr.mu.Unlock()
	}
	return st
}

func (st *sessionTrace) dial(network, addr string) (net.Conn, error) {
	t := time.Now()
	c, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	st.tr.add(span{parent: sessionID(st.idx), session: st.idx, name: "client.dial", start: t, end: time.Now()})
	st.tr.mu.Lock()
	st.tr.conns[[2]int{port(c.LocalAddr()), port(c.RemoteAddr())}] = st.idx
	st.tr.mu.Unlock()
	if st.record && st.buf == nil {
		st.buf = new([]byte)
		return &teeConn{Conn: c, buf: st.buf}, nil
	}
	return c, nil
}

func (st *sessionTrace) end(start, first, end time.Time) {
	sid := sessionID(st.idx)
	st.tr.add(span{id: sid, session: st.idx, name: "session", start: start, end: end})
	if !first.IsZero() {
		st.tr.add(span{parent: sid, session: st.idx, name: "client.stream", start: first, end: end})
	}
	if st.buf != nil && !first.IsZero() {
		st.tr.mu.Lock()
		st.tr.streams = append(st.tr.streams, *st.buf)
		st.tr.mu.Unlock()
	}
}

// teeConn keeps a copy of everything read from the connection.
type teeConn struct {
	net.Conn
	buf *[]byte
}

func (c *teeConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	*c.buf = append(*c.buf, p[:n]...)
	return n, err
}

// --- server seam ----------------------------------------------------------

// listener wraps ln so every accepted connection is traced (ln itself
// when untraced).
func (tr *tracer) listener(ln net.Listener) net.Listener {
	if tr == nil {
		return ln
	}
	return tracedListener{Listener: ln, tr: tr}
}

type tracedListener struct {
	net.Listener
	tr *tracer
}

func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return c, err
	}
	return &serverConn{Conn: c, tr: l.tr, accepted: time.Now()}, nil
}

// serverConn times one accepted connection: accept to the request's
// first byte, request to the first response byte, and first to last
// response byte. It keeps io.ReaderFrom so file-backed artifacts still
// reach the socket through sendfile.
type serverConn struct {
	net.Conn
	tr                                    *tracer
	mu                                    sync.Mutex
	accepted, firstRead, firstWrite, last time.Time
	written                               int64
	once                                  sync.Once
}

func (c *serverConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.mu.Lock()
		if c.firstRead.IsZero() {
			c.firstRead = time.Now()
		}
		c.mu.Unlock()
	}
	return n, err
}

func (c *serverConn) Write(p []byte) (int, error) {
	t := time.Now()
	n, err := c.Conn.Write(p)
	c.wrote(t, int64(n))
	return n, err
}

func (c *serverConn) ReadFrom(r io.Reader) (int64, error) {
	t := time.Now()
	var n int64
	var err error
	if rf, ok := c.Conn.(io.ReaderFrom); ok {
		n, err = rf.ReadFrom(r)
	} else {
		n, err = io.Copy(struct{ io.Writer }{c.Conn}, r)
	}
	c.wrote(t, n)
	return n, err
}

func (c *serverConn) wrote(t time.Time, n int64) {
	c.mu.Lock()
	if c.firstWrite.IsZero() && n > 0 {
		c.firstWrite = t
	}
	c.last = time.Now()
	c.written += n
	c.mu.Unlock()
}

func (c *serverConn) Close() error {
	err := c.Conn.Close()
	c.once.Do(c.emit)
	return err
}

// emit records the connection's spans under the client session that
// opened it; connections from peers and proxies are timed by their
// dialers instead.
func (c *serverConn) emit() {
	c.tr.mu.Lock()
	idx, ok := c.tr.conns[[2]int{port(c.RemoteAddr()), port(c.LocalAddr())}]
	c.tr.mu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	if !ok || c.firstRead.IsZero() || c.firstWrite.IsZero() {
		return
	}
	sid := sessionID(idx)
	c.tr.add(span{parent: sid, session: idx, name: "server.request", start: c.accepted, end: c.firstRead})
	c.tr.add(span{parent: sid, session: idx, name: "server.ttfb", start: c.firstRead, end: c.firstWrite})
	c.tr.add(span{parent: sid, session: idx, name: "server.send", start: c.firstWrite, end: c.last, bytes: c.written})
}

// --- peer seams -----------------------------------------------------------

// dialer returns a dial function that records one span named name per
// connection, from dial to close, with the bytes read (nil when
// untraced, so the caller keeps its default dialer). resolve, when set,
// maps the dialed name to an address.
func (tr *tracer) dialer(name string, resolve func(string) string) func(network, addr string) (net.Conn, error) {
	if tr == nil {
		return nil
	}
	return func(network, addr string) (net.Conn, error) {
		if resolve != nil {
			addr = resolve(addr)
		}
		t := time.Now()
		c, err := net.DialTimeout(network, addr, 2*time.Second)
		if err != nil {
			return nil, err
		}
		return &peerConn{Conn: c, tr: tr, name: name, start: t}, nil
	}
}

type peerConn struct {
	net.Conn
	tr    *tracer
	name  string
	start time.Time
	read  atomic.Int64
	once  sync.Once
}

func (c *peerConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

func (c *peerConn) Close() error {
	err := c.Conn.Close()
	c.once.Do(func() {
		c.tr.add(span{session: -1, name: c.name, start: c.start, end: time.Now(), bytes: c.read.Load()})
	})
	return err
}

// --- export ---------------------------------------------------------------

// byName returns the spans called name, in start order.
func (tr *tracer) byName(name string) []span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []span
	for _, s := range tr.spans {
		if s.name == name {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start.Before(out[j].start) })
	return out
}

// writeJSONL writes every span as one JSON line, times in microseconds
// since the tracer started.
func (tr *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	tr.mu.Lock()
	for _, s := range tr.spans {
		line := struct {
			ID      int64   `json:"id"`
			Parent  int64   `json:"parent,omitempty"`
			Session int     `json:"session"`
			Name    string  `json:"name"`
			Start   float64 `json:"start_us"`
			End     float64 `json:"end_us"`
			Bytes   int64   `json:"bytes,omitempty"`
		}{s.id, s.parent, s.session, s.name, us(s.start.Sub(tr.t0)), us(s.end.Sub(tr.t0)), s.bytes}
		if err = enc.Encode(line); err != nil {
			break
		}
	}
	tr.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
