package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
)

// workload is one traffic mix the benchmark drives. BENCHMARK.json
// names each workload with the reason it exists; README.md gives the
// layer each one stresses and the one it bypasses.
type workload struct {
	name string
	// Clip geometry and length range of the catalog.
	clipW, clipH         int
	minFrames, maxFrames int
	// clips is the catalog size. With fresh set, every timed session
	// plays a clip of its own and clips bounds how many sessions a run
	// can play.
	clips int
	fresh bool
	// warmups (fresh catalogs only) is how many clips set-up plays once
	// before timing, so one-time process costs land in set-up. Too few
	// make set-up so short that its run-to-run spread doubles.
	warmups int
	// adaptiveOneIn makes one session in n adaptive (0: none).
	adaptiveOneIn int
	// nodes is the number of clustered servers (1: a single server).
	// The first member owns every artifact of the catalog; the others
	// serve the timed sessions.
	nodes int
	// proxy puts a stream.Proxy between the clients and the server.
	proxy bool
	// cacheShare, when nonzero, bounds the memory cache of every server
	// that serves timed sessions to this share of the first server's
	// store bytes after pre-warm. On a fresh catalog it keeps the cache
	// at a steady size while new clips stream through it.
	cacheShare float64
}

var workloads = []*workload{
	{name: "warm-hit", clipW: 64, clipH: 48, minFrames: 40, maxFrames: 70, clips: 6,
		adaptiveOneIn: 4, nodes: 1},
	{name: "store-hit", clipW: 64, clipH: 48, minFrames: 40, maxFrames: 70, clips: 6,
		adaptiveOneIn: 4, nodes: 1, cacheShare: 0.25},
	{name: "cold-miss", clipW: 48, clipH: 32, minFrames: 40, maxFrames: 56, clips: 1200,
		fresh: true, warmups: 8, nodes: 1, cacheShare: 1},
	{name: "peer-fill", clipW: 32, clipH: 24, minFrames: 16, maxFrames: 24, clips: 12,
		nodes: 3, cacheShare: 1.0 / 12},
	{name: "proxy-edge", clipW: 64, clipH: 48, minFrames: 40, maxFrames: 70, clips: 6,
		adaptiveOneIn: 4, nodes: 1, proxy: true},
}

// catalog generates the workload's clips from seed. A cluster keeps
// only clips whose every artifact the first member owns.
func (w *workload) catalog(seed int64) (*catalog, error) {
	var keep func(core.Source) bool
	if w.nodes > 1 {
		keep = ownedByFirst(w.nodes)
	}
	return genCatalog(seed, w.name, w.clips, w.clipW, w.clipH, w.minFrames, w.maxFrames, keep)
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// devices is the paper's three handhelds; deviceSlots weights them
// 0.5/0.3/0.2.
var (
	devices     = []string{"ipaq5555", "ipaq3650", "zaurus5600"}
	deviceSlots = []string{
		"ipaq5555", "ipaq5555", "ipaq5555", "ipaq5555", "ipaq5555",
		"ipaq3650", "ipaq3650", "ipaq3650",
		"zaurus5600", "zaurus5600",
	}
)

// rungs are the quality rungs fixed sessions draw from; adaptive
// sessions start at (and never exceed) the top one.
var rungs = []int{1, 2, 3}

// spec is one session of a workload's population.
type spec struct {
	idx      int
	clip     string
	rung     int
	device   string
	adaptive bool
	// peer picks which of the clip variant's non-owners serves a
	// peer-fill session.
	peer int
}

// population draws a workload's sessions in order from its seed. Each
// property is stratified: it comes from a seeded permutation redrawn
// every n sessions, so any n consecutive sessions cover its values
// evenly and a run's mix does not depend on how many sessions fit in
// its time budget.
type population struct {
	wl    *workload
	cat   *catalog
	seed  int64
	first int // fresh catalogs: clips below this index are set-up's
	next  int
	perms map[int]stratum
}

type stratum struct {
	block int
	perm  []int
}

func newPopulation(wl *workload, cat *catalog, seed int64) *population {
	p := &population{wl: wl, cat: cat, seed: seed, perms: map[int]stratum{}}
	if wl.fresh {
		p.first = wl.warmups
	}
	return p
}

// pick returns element i%n of the permutation of stream for block i/n.
func (p *population) pick(stream, i, n int) int {
	s, ok := p.perms[stream]
	if !ok || s.block != i/n {
		r := rand.New(rand.NewSource(p.seed*1_000_003 + int64(stream)*7919 + int64(i/n)))
		s = stratum{block: i / n, perm: r.Perm(n)}
		p.perms[stream] = s
	}
	return s.perm[i%n]
}

// take returns the next session, or false when a fresh catalog has no
// unplayed clip left. Not safe for concurrent use.
func (p *population) take() (spec, bool) {
	i := p.next
	s := spec{idx: i, device: deviceSlots[p.pick(1, i, len(deviceSlots))]}
	switch {
	case p.wl.nodes > 1:
		// Every (clip, rung, non-owner) once per block: a non-owner sees
		// a key again only after the whole catalog, long after its small
		// budgets evicted it, so each session fills from the owner.
		n := len(p.cat.names) * len(rungs)
		c := p.pick(0, i, n*(p.wl.nodes-1))
		s.clip, s.rung, s.peer = p.cat.names[c%len(p.cat.names)], rungs[c/len(p.cat.names)%len(rungs)], c/n
	case p.wl.fresh:
		k := p.first + i
		if k >= len(p.cat.names) {
			return spec{}, false
		}
		s.clip, s.rung = p.cat.names[k], rungs[p.pick(0, i, len(rungs))]
	default:
		c := p.pick(0, i, len(p.cat.names)*len(rungs))
		s.clip, s.rung = p.cat.names[c%len(p.cat.names)], rungs[c/len(p.cat.names)]
		if p.wl.adaptiveOneIn > 0 && p.pick(2, i, p.wl.adaptiveOneIn) == 0 {
			s.adaptive, s.rung = true, rungs[len(rungs)-1]
		}
	}
	p.next++
	return s, true
}
