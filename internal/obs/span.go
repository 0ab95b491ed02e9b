package obs

import (
	"context"
	"strconv"
	"time"
)

// SpanMetric is the histogram family every span records into, one
// series per span name (label "span").
const SpanMetric = "span_duration_seconds"

// defaultSpanRingSize is the recent-span ring capacity.
const defaultSpanRingSize = 128

// Attr is one key/value annotation on a span.
type Attr struct {
	Key, Value string
}

// SpanRecord is one completed span, kept in the registry's recent-span
// ring for the /debug/spans endpoint. Spans begun inside an active
// trace additionally carry their trace identity and parentage, from
// which /debug/traces reassembles whole request trees.
type SpanRecord struct {
	Name     string
	Start    time.Time
	Duration time.Duration
	Trace    TraceID
	Span     SpanID
	Parent   SpanID
	Attrs    []Attr
}

type registryKey struct{}

// WithRegistry attaches a registry to a context so instrumented code
// deep in the pipeline can find it without plumbing.
func WithRegistry(ctx context.Context, r *Registry) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, registryKey{}, r)
}

// FromContext returns the registry attached by WithRegistry, or nil.
func FromContext(ctx context.Context) *Registry {
	if ctx == nil {
		return nil
	}
	r, _ := ctx.Value(registryKey{}).(*Registry)
	return r
}

// spanData is the trace-participation state of a span: its identity,
// its parent within the trace, and any attributes set so far. It is a
// separate allocation so that plain metric-only spans — and every span
// on the disabled path — stay allocation-free.
type spanData struct {
	sc     SpanContext
	parent SpanID
	attrs  []Attr
}

// Span measures one named stretch of work. It is a value type so the
// disabled path allocates nothing; End on the zero Span is a no-op.
type Span struct {
	r     *Registry
	h     *Histogram
	d     *spanData
	name  string
	start time.Time
}

// StartSpan begins a span against the context's registry (no-op when
// none is attached). When ctx carries an active trace (via StartTrace,
// StartSpanCtx or WithSpanContext) the span joins it as a child of the
// active span; otherwise it records into the histogram and span ring
// only, exactly as before tracing existed.
func StartSpan(ctx context.Context, name string) Span {
	r := FromContext(ctx)
	if r == nil {
		return Span{}
	}
	if SpanContextFrom(ctx).Valid() {
		return r.startSpanIn(ctx, name)
	}
	return r.StartSpan(name)
}

// StartSpan begins a metric-only span recording into the registry's
// span_duration_seconds histogram under the given name.
func (r *Registry) StartSpan(name string) Span {
	if r == nil {
		return Span{}
	}
	h := r.Histogram(SpanMetric, "Latency of named pipeline stages.", DefLatencyBuckets, Label{Key: "span", Value: name})
	return Span{r: r, h: h, name: name, start: time.Now()}
}

// SpanContext returns the span's trace identity (zero for metric-only
// and disabled spans).
func (s Span) SpanContext() SpanContext {
	if s.d == nil {
		return SpanContext{}
	}
	return s.d.sc
}

// SetAttr annotates the span with a key/value pair, surfaced in
// /debug/spans and /debug/traces. No-op on the disabled path. Pointer
// receiver: a metric-only span allocates its side data on first use,
// and that must stick to the caller's span, not a copy.
func (s *Span) SetAttr(key, value string) {
	if s.h == nil {
		return
	}
	if s.d == nil {
		s.d = &spanData{}
	}
	s.d.attrs = append(s.d.attrs, Attr{Key: key, Value: value})
}

// SetAttrInt is SetAttr for integer values.
func (s *Span) SetAttrInt(key string, v int64) {
	if s.h == nil {
		return
	}
	s.SetAttr(key, strconv.FormatInt(v, 10))
}

// End records the span's duration into the histogram and the span ring,
// and — when the span belongs to a sampled trace — into the trace ring
// and JSONL export.
func (s Span) End() {
	if s.h == nil {
		return
	}
	d := time.Since(s.start)
	s.h.Observe(d.Seconds())
	rec := SpanRecord{Name: s.name, Start: s.start, Duration: d}
	if s.d != nil {
		rec.Trace = s.d.sc.Trace
		rec.Span = s.d.sc.Span
		rec.Parent = s.d.parent
		rec.Attrs = s.d.attrs
	}
	s.r.recordSpan(rec)
	if s.d != nil && s.d.sc.Valid() && s.d.sc.Sampled {
		s.r.recordTraceSpan(rec)
	}
}

func (r *Registry) recordSpan(rec SpanRecord) {
	r.spanMu.Lock()
	if r.spanRing == nil {
		r.spanRing = make([]SpanRecord, defaultSpanRingSize)
	}
	r.spanRing[r.spanN%uint64(len(r.spanRing))] = rec
	r.spanN++
	r.spanMu.Unlock()
}

// RecentSpans returns up to the ring's worth of completed spans, newest
// first.
func (r *Registry) RecentSpans() []SpanRecord {
	if r == nil {
		return nil
	}
	r.spanMu.Lock()
	defer r.spanMu.Unlock()
	if r.spanRing == nil {
		return nil
	}
	size := uint64(len(r.spanRing))
	n := r.spanN
	if n > size {
		n = size
	}
	out := make([]SpanRecord, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, r.spanRing[(r.spanN-1-i)%size])
	}
	return out
}
