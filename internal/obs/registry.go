// Package obs is the repository's dependency-free telemetry substrate:
// a concurrency-safe metrics registry (counters, gauges, fixed-bucket
// histograms), lightweight span tracing for the pipeline stages, and an
// HTTP debug server exposing /metrics in Prometheus text exposition
// format alongside /healthz, expvar and net/http/pprof.
//
// The paper's whole argument is quantitative (backlight power roughly
// proportional to level, up to 65% saved, negligible client overhead),
// so every stage of the reproduction must be observable at runtime.
// Instrumentation is designed to cost nothing when disabled: a nil
// *Registry hands out nil metric handles, and every metric method is a
// no-op on a nil receiver — callers instrument unconditionally and pay
// zero allocations unless an observer was installed.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension (rendered as name{key="value"}).
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// metric family types, as rendered in the TYPE comment.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// Counter is a monotonically increasing count. The zero value is ready
// to use; all methods are no-ops on a nil receiver.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add increases the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// atomicFloat is a float64 with atomic Set/Add.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) set(v float64) { f.bits.Store(math.Float64bits(v)) }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		nb := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nb) {
			return
		}
	}
}

func (f *atomicFloat) value() float64 { return math.Float64frombits(f.bits.Load()) }

// Gauge is a value that can go up and down. All methods are no-ops on a
// nil receiver.
type Gauge struct {
	v atomicFloat
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v.set(v)
	}
}

// Add offsets the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta float64) {
	if g != nil {
		g.v.add(delta)
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v.value()
}

// Histogram counts observations into fixed buckets. Buckets are upper
// bounds in ascending order; an implicit +Inf bucket catches the
// overflow. All methods are no-ops on a nil receiver.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; last is the +Inf overflow
	count   atomic.Uint64
	sum     atomicFloat
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v (le semantics)
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.value()
}

// DefLatencyBuckets covers sub-millisecond stage work up to multi-second
// whole-pipeline passes.
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// series is one labelled instance within a family.
type series struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups all series sharing a metric name.
type family struct {
	name, help, typ string
	bounds          []float64
	series          map[string]*series
	order           []string
}

// Registry holds metric families and the recent-span ring. A nil
// *Registry is the disabled state: every constructor returns nil and
// every nil metric method is a no-op.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string

	spanMu   sync.Mutex
	spanRing []SpanRecord // lazily sized to defaultSpanRingSize
	spanN    uint64

	// Completed sampled trace spans, separately ring-buffered so a
	// burst of metric-only spans cannot evict a request tree before
	// /debug/traces is scraped.
	traceMu     sync.Mutex
	traceRing   []SpanRecord
	traceN      uint64
	traceW      io.Writer
	sampleRatio float64
	sampleSet   bool
	traceWMu    sync.Mutex

	readyMu    sync.Mutex
	ready      map[string]func() error
	readyOrder []string

	rt runtimeState
}

// RegisterReadiness adds a named readiness check consulted by /readyz:
// the endpoint reports ready only while every registered check returns
// nil. Re-registering a name replaces its check. No-op on a nil
// registry.
func (r *Registry) RegisterReadiness(name string, check func() error) {
	if r == nil || check == nil {
		return
	}
	r.readyMu.Lock()
	defer r.readyMu.Unlock()
	if r.ready == nil {
		r.ready = map[string]func() error{}
	}
	if _, exists := r.ready[name]; !exists {
		r.readyOrder = append(r.readyOrder, name)
	}
	r.ready[name] = check
}

// readinessErrors runs every registered check and returns "name: err"
// lines for the failing ones, in registration order.
func (r *Registry) readinessErrors() []string {
	if r == nil {
		return nil
	}
	r.readyMu.Lock()
	names := append([]string(nil), r.readyOrder...)
	checks := make([]func() error, len(names))
	for i, n := range names {
		checks[i] = r.ready[n]
	}
	r.readyMu.Unlock()
	var out []string
	for i, f := range checks {
		if err := f(); err != nil {
			out = append(out, names[i]+": "+err.Error())
		}
	}
	return out
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// Counter returns the counter registered under name with the given
// labels, creating it on first use. Returns nil when r is nil.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.getOrCreate(name, help, typeCounter, nil, labels).c
}

// Gauge returns the gauge registered under name with the given labels,
// creating it on first use. Returns nil when r is nil.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.getOrCreate(name, help, typeGauge, nil, labels).g
}

// Histogram returns the histogram registered under name with the given
// bucket upper bounds and labels, creating it on first use. Bounds must
// be ascending; they are fixed by the first registration of the family.
// Returns nil when r is nil.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.getOrCreate(name, help, typeHistogram, bounds, labels).h
}

func (r *Registry) getOrCreate(name, help, typ string, bounds []float64, labels []Label) *series {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l.Key) {
			panic(fmt.Sprintf("obs: invalid label key %q in metric %q", l.Key, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fam, ok := r.families[name]
	if !ok {
		if typ == typeHistogram {
			if len(bounds) == 0 {
				bounds = DefLatencyBuckets
			}
			if !sort.Float64sAreSorted(bounds) {
				panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
			}
		}
		fam = &family{name: name, help: help, typ: typ, bounds: bounds, series: map[string]*series{}}
		r.families[name] = fam
		r.order = append(r.order, name)
	}
	if fam.typ != typ {
		panic(fmt.Sprintf("obs: metric %q already registered as %s, requested %s", name, fam.typ, typ))
	}
	sig := labelSig(labels)
	s, ok := fam.series[sig]
	if !ok {
		s = &series{labels: append([]Label(nil), labels...)}
		switch typ {
		case typeCounter:
			s.c = &Counter{}
		case typeGauge:
			s.g = &Gauge{}
		case typeHistogram:
			s.h = &Histogram{
				bounds:  fam.bounds,
				buckets: make([]atomic.Uint64, len(fam.bounds)+1),
			}
		}
		fam.series[sig] = s
		fam.order = append(fam.order, sig)
	}
	return s
}

// labelSig builds the map key distinguishing label sets within a family.
func labelSig(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte(0xff)
		b.WriteString(l.Value)
		b.WriteByte(0xfe)
	}
	return b.String()
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// WritePrometheus renders every registered metric in Prometheus text
// exposition format (families in registration order, series in
// first-use order).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	for _, name := range r.order {
		fam := r.families[name]
		if fam.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", fam.name, escapeHelp(fam.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", fam.name, fam.typ)
		for _, sig := range fam.order {
			s := fam.series[sig]
			switch fam.typ {
			case typeCounter:
				b.WriteString(fam.name)
				writeLabels(&b, s.labels, "")
				fmt.Fprintf(&b, " %d\n", s.c.Value())
			case typeGauge:
				b.WriteString(fam.name)
				writeLabels(&b, s.labels, "")
				fmt.Fprintf(&b, " %s\n", formatFloat(s.g.Value()))
			case typeHistogram:
				var cum uint64
				for i, bound := range s.h.bounds {
					cum += s.h.buckets[i].Load()
					b.WriteString(fam.name)
					b.WriteString("_bucket")
					writeLabels(&b, s.labels, formatFloat(bound))
					fmt.Fprintf(&b, " %d\n", cum)
				}
				cum += s.h.buckets[len(s.h.bounds)].Load()
				b.WriteString(fam.name)
				b.WriteString("_bucket")
				writeLabels(&b, s.labels, "+Inf")
				fmt.Fprintf(&b, " %d\n", cum)
				b.WriteString(fam.name)
				b.WriteString("_sum")
				writeLabels(&b, s.labels, "")
				fmt.Fprintf(&b, " %s\n", formatFloat(s.h.Sum()))
				b.WriteString(fam.name)
				b.WriteString("_count")
				writeLabels(&b, s.labels, "")
				fmt.Fprintf(&b, " %d\n", s.h.Count())
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeLabels renders {k="v",...}; le is the histogram bucket bound
// appended last ("" for none).
func writeLabels(b *strings.Builder, labels []Label, le string) {
	if len(labels) == 0 && le == "" {
		return
	}
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	if le != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
