package main

import (
	"context"
	"sort"
	"strings"
	"time"

	"repro/internal/annstore"
	"repro/internal/obs"
)

// perLayerMetrics reduces a traced phase to the per-layer metrics. They
// come from three sources: spans recorded at the seams the layers
// expose (tracer), counters read from every node's metrics registry,
// and a single-goroutine replay of each layer's functions on the
// workload's own clips, response streams and stored artifacts. A seam
// the workload never crossed (a fill outside the cluster, an upstream
// fetch without a proxy) is timed by replay instead, so every timing is
// a measurement on every workload.
func perLayerMetrics(ctx context.Context, ph *phase, c cohort) (map[string]metric, error) {
	tr := ph.tr
	m := map[string]metric{}
	set := func(name string, v float64, n int) {
		m[name] = metric{Value: v, Unit: unitOf(perLayer, name), n: n}
	}
	ok, switches := 0, 0
	for _, r := range ph.recs {
		if r.err == nil {
			ok++
			switches += r.switches
		}
	}
	per := func(v float64) float64 { return v / float64(max(ok, 1)) }

	// Client and server seams.
	dial := spanMs(tr.byName("client.dial"))
	set("client.dial_ms_p50", quantile(dial, 0.5), len(dial))
	ttff := ph.summary.ttffMs
	set("client.first_frame_ms_p50", quantile(ttff, 0.5), len(ttff))
	str := spanMs(tr.byName("client.stream"))
	set("client.stream_ms_p50", quantile(str, 0.5), len(str))
	ttfb := spanMs(tr.byName("server.ttfb"))
	set("server.ttfb_ms_p50", quantile(ttfb, 0.5), len(ttfb))
	set("server.ttfb_ms_p90", quantile(ttfb, 0.9), len(ttfb))
	sends := tr.byName("server.send")
	send := spanMs(sends)
	set("server.send_ms_p50", quantile(send, 0.5), len(send))
	set("server.bytes_per_session", per(float64(spanBytes(sends))), ok)

	// Registries: the timed phase's deltas, except computations, which
	// count the whole run (pre-warm included) against every distinct
	// artifact any store holds.
	delta := func(name string) float64 { return sumOf(ph.regAfter, name) - sumOf(ph.regBefore, name) }
	hits, misses := delta("anncache_hits_total"), delta("anncache_misses_total")
	set("anncache.hit_ratio", hits/max(hits+misses, 1), int(hits+misses))
	set("anncache.evictions_per_session", per(delta("anncache_evictions_total")), ok)
	set("anncache.singleflight_waits_per_session", per(delta("anncache_singleflight_waits_total")), ok)
	set("cluster.fills_per_session", per(delta("cluster_peer_fills_total")), ok)
	set("cluster.fallback_computes", sumOf(ph.regAfter, "cluster_route_fallback"), 1)
	computes := sumOf(ph.regAfter, "anncache_misses_total") - sumOf(ph.regAfter, "annstore_hits_total") -
		sumOf(ph.regAfter, "cluster_peer_fills_total")
	keys := distinctKeys(ph)
	set("cluster.computes_per_key", computes/float64(max(keys, 1)), keys)

	fills := tr.byName("cluster.fill")
	set("cluster.fill_bytes_per_session", per(float64(spanBytes(fills))), ok)
	ups := tr.byName("proxy.upstream")
	set("proxy.upstream_bytes_per_session", per(float64(spanBytes(ups))), ok)
	set("proxy.upstream_conns_per_session", per(float64(len(ups))), ok)
	set("ladder.switches_per_session", per(float64(switches)), ok)

	var gcs uint32
	for _, r := range ph.rounds {
		gcs += r.gcs
	}
	set("runtime.gc_per_1k_sessions", 1000*per(float64(gcs)), ok)
	set("runtime.goroutines_peak", float64(ph.goroutinesPeak), 1)

	unTTFF, unSession := unaccounted(ph)
	set("ttff.unaccounted_ms_p50", quantile(unTTFF, 0.5), len(unTTFF))
	set("session.unaccounted_pct", quantile(unSession, 0.5), len(unSession))

	// Renders the serving side asked of the catalog during the timed
	// phase, per frame of the clips it rendered at all.
	var calls, frames int64
	for name, after := range ph.rendersAfter {
		if d := after - ph.rendersBefore[name]; d > 0 {
			calls += d
			frames += int64(tr.frames[name])
		}
	}
	set("video.renders_per_computed_frame", float64(calls)/float64(max(frames, 1)), int(frames))

	if err := replay(ctx, ph, set, len(fills) == 0, len(ups) == 0); err != nil {
		return nil, err
	}
	if len(fills) > 0 {
		f := spanMs(fills)
		set("cluster.fill_ms_p50", quantile(f, 0.5), len(f))
		set("cluster.fill_ms_p90", quantile(f, 0.9), len(f))
	}
	if len(ups) > 0 {
		u := spanMs(ups)
		set("proxy.upstream_ms_p50", quantile(u, 0.5), len(u))
	}
	set("calib.dct8x8_ns", c.DCTNs, 5)
	return m, nil
}

func spanMs(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = ms(s.end.Sub(s.start))
	}
	return out
}

func spanBytes(spans []span) int64 {
	var n int64
	for _, s := range spans {
		n += s.bytes
	}
	return n
}

// scrapedFamilies are the registry counters the per-layer metrics read.
var scrapedFamilies = []string{
	"anncache_hits_total", "anncache_misses_total",
	"anncache_singleflight_waits_total", "anncache_evictions_total",
	"annstore_hits_total", "cluster_peer_fills_total",
}

// scrapeOne renders r as a Prometheus exposition, parses it back, and
// sums each scraped family over its label sets.
func scrapeOne(r *obs.Registry) map[string]float64 {
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		return nil
	}
	e, err := obs.ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		return nil
	}
	out := map[string]float64{}
	for _, name := range scrapedFamilies {
		out[name] = e.Sum(name)
	}
	out["cluster_route_fallback"] = e.Sum("cluster_route_total", obs.L("decision", "fallback_compute"))
	return out
}

func sumOf(snaps []map[string]float64, name string) float64 {
	var v float64
	for _, s := range snaps {
		v += s[name]
	}
	return v
}

// distinctKeys counts the artifacts held across the fleet's stores.
// Every computed artifact is written through to its node's store, and
// the owners' stores are unbounded, so this is every artifact computed.
func distinctKeys(ph *phase) int {
	seen := map[annstore.Key]bool{}
	for _, st := range ph.fl.stores() {
		for _, k := range st.Keys() {
			seen[k] = true
		}
	}
	return len(seen)
}

// unaccounted returns, per traced session, the time to first frame and
// the share of the whole session that no child span covers. The child
// spans are the client's dial and stream and the server connection's
// request wait, time to first byte and send.
func unaccounted(ph *phase) (ttffMs, sessionPct []float64) {
	children := map[int][]span{}
	for _, name := range []string{"client.dial", "server.request", "server.ttfb", "server.send", "client.stream"} {
		for _, s := range ph.tr.byName(name) {
			children[s.session] = append(children[s.session], s)
		}
	}
	for _, r := range ph.recs {
		if r.err != nil || r.dur <= 0 {
			continue
		}
		start := r.start
		ttffMs = append(ttffMs, ms(r.ttff-covered(start, start.Add(r.ttff), children[r.idx])))
		sessionPct = append(sessionPct, 100*float64(r.dur-covered(start, start.Add(r.dur), children[r.idx]))/float64(r.dur))
	}
	return ttffMs, sessionPct
}

// covered is how much of [a, b) the union of the spans covers.
func covered(a, b time.Time, spans []span) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].start.Before(spans[j].start) })
	var total time.Duration
	cur := a
	for _, s := range spans {
		lo, hi := s.start, s.end
		if lo.Before(cur) {
			lo = cur
		}
		if hi.After(b) {
			hi = b
		}
		if hi.After(lo) {
			total += hi.Sub(lo)
			cur = hi
		}
	}
	return total
}
