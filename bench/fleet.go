package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/annstore"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stream"
)

// node is one in-process stream server with its persistent store.
type node struct {
	srv   *stream.Server
	store *annstore.Store
	reg   *obs.Registry // nil when untraced
	addr  string
}

// fleet is the serving side of one workload: its servers and, for
// proxy-edge, the proxy clients play through.
type fleet struct {
	wl         *workload
	cat        *catalog
	dir        string
	tr         *tracer
	nodes      []*node
	proxy      *stream.Proxy
	proxyReg   *obs.Registry
	proxyStore *annstore.Store
	entry      string // where clients dial, except on a cluster
	// addrs maps a cluster member name to the node's loopback address.
	addrMu sync.Mutex
	addrs  map[string]string
}

func quiet(string, ...any) {}

// memberNames are the cluster's member names. Nodes are named rather
// than addressed by their ephemeral ports, so which node owns an
// artifact is a function of the seed alone; a dial function maps each
// name to its node.
func memberNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("node%d.bench:7400", i)
	}
	return out
}

// ownedByFirst accepts a clip when the first cluster member owns every
// artifact kind the clip is served from, so the other members only
// ever fill it.
func ownedByFirst(nodes int) func(core.Source) bool {
	members := memberNames(nodes)
	return func(src core.Source) bool {
		dg := core.SourceDigest(src)
		for _, kind := range []string{"track", "variant", "levels"} {
			if cluster.Owner(members, cluster.RouteKey(kind, dg)) != members[0] {
				return false
			}
		}
		return true
	}
}

// bootFleet starts the workload's servers on loopback over the catalog,
// each with a store under dir. A cluster starts with its owner only;
// prewarm adds the other members. With a tracer, every node gets a
// metrics registry and its listener and dials are wrapped.
func bootFleet(wl *workload, cat *catalog, dir string, tr *tracer) (f *fleet, err error) {
	f = &fleet{wl: wl, cat: cat, dir: dir, tr: tr, addrs: map[string]string{}}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	if err := f.bootNode(0, 0); err != nil {
		return f, err
	}
	f.entry = f.nodes[0].addr
	if wl.proxy {
		st, err := annstore.Open(filepath.Join(dir, "proxy"), annstore.Options{})
		if err != nil {
			return f, err
		}
		f.proxyStore = st
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return f, err
		}
		f.proxy = stream.NewProxy(f.entry)
		f.proxy.SetLogf(quiet)
		f.proxy.SetStore(st)
		if tr != nil {
			f.proxyReg = obs.NewRegistry()
			f.proxy.SetObserver(f.proxyReg)
			st.SetObserver(f.proxyReg, obs.L("role", "proxy"))
			f.proxy.SetDial(tr.dialer("proxy.upstream", nil))
		}
		f.proxy.Serve(tr.listener(ln))
		f.entry = ln.Addr().String()
	}
	return f, nil
}

// bootNode starts server i with its memory cache bounded to budget
// bytes (unbounded when zero). The first server keeps its artifacts in
// a store. The other members of a cluster have none: on a shared host
// an fsync can take several times longer for seconds at a time, and
// written-through fills would make their sessions time the disk rather
// than the fill path; annstore.put_ms_p50 times the writes.
func (f *fleet) bootNode(i int, budget int64) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	n := &node{srv: stream.NewServer(f.tr.sources(f.cat)), addr: ln.Addr().String()}
	f.nodes = append(f.nodes, n)
	n.srv.SetLogf(quiet)
	if i == 0 {
		if n.store, err = annstore.Open(filepath.Join(f.dir, "node0"), annstore.Options{}); err != nil {
			ln.Close()
			return err
		}
		n.srv.SetStore(n.store)
	}
	if budget > 0 {
		n.srv.SetCacheCapacity(budget)
	}
	if f.wl.nodes > 1 {
		members := memberNames(f.wl.nodes)
		f.addrMu.Lock()
		f.addrs[members[i]] = n.addr
		f.addrMu.Unlock()
		var peers []string
		for j, m := range members {
			if j != i {
				peers = append(peers, m)
			}
		}
		dial := f.tr.dialer("cluster.fill", f.resolve)
		if dial == nil {
			dial = func(network, addr string) (net.Conn, error) { return net.Dial(network, f.resolve(addr)) }
		}
		cn, err := cluster.New(cluster.Config{Self: members[i], Peers: peers, Dial: dial})
		if err != nil {
			ln.Close()
			return err
		}
		n.srv.SetCluster(cn)
	}
	if f.tr != nil {
		n.reg = obs.NewRegistry()
		n.srv.SetObserver(n.reg)
		if n.store != nil {
			n.store.SetObserver(n.reg, obs.L("role", "server"))
		}
	}
	n.srv.Serve(f.tr.listener(ln))
	return nil
}

// resolve maps a cluster member name to its node's address.
func (f *fleet) resolve(member string) string {
	f.addrMu.Lock()
	defer f.addrMu.Unlock()
	if a, ok := f.addrs[member]; ok {
		return a
	}
	return member
}

// target is the address a timed session dials: a cluster's non-owner
// member, or the fleet's entry point.
func (f *fleet) target(s spec) string {
	if f.wl.nodes > 1 {
		return f.nodes[1+s.peer].addr
	}
	return f.entry
}

// registries returns every node registry (nil entries when untraced).
func (f *fleet) registries() []*obs.Registry {
	var out []*obs.Registry
	for _, n := range f.nodes {
		out = append(out, n.reg)
	}
	if f.proxy != nil {
		out = append(out, f.proxyReg)
	}
	return out
}

// stores returns every store of the fleet.
func (f *fleet) stores() []*annstore.Store {
	var out []*annstore.Store
	for _, n := range f.nodes {
		if n.store != nil {
			out = append(out, n.store)
		}
	}
	if f.proxyStore != nil {
		out = append(out, f.proxyStore)
	}
	return out
}

func (f *fleet) close() {
	if f.proxy != nil {
		f.proxy.Close()
	}
	for _, n := range f.nodes {
		n.srv.Close()
	}
	for _, st := range f.stores() {
		st.Close()
	}
	os.RemoveAll(f.dir)
}

// prewarm brings the fleet to the state the timed phase starts from,
// playing sessions on nproc workers:
//   - catalog workloads and peer-fill's owner play every (clip, rung)
//     once, each rung on another device, so every track, variant and
//     device level table the timed phase asks for is cached;
//   - cold-miss plays its warm-up clips.
//
// Then store-hit shrinks the memory cache below the working set,
// cold-miss bounds it to what the warm-up stored, and a cluster boots
// its other members with memory budgets far below the working set, so
// their sessions fill from the owner.
func (f *fleet) prewarm(ctx context.Context, workers int) error {
	var jobs []spec
	if f.wl.fresh {
		for _, clip := range f.cat.names[:f.wl.warmups] {
			jobs = append(jobs, spec{clip: clip, rung: rungs[0], device: devices[0]})
		}
	} else {
		for _, clip := range f.cat.names {
			for i, r := range rungs {
				jobs = append(jobs, spec{clip: clip, rung: r, device: devices[i%len(devices)]})
			}
		}
	}
	if err := parallel(len(jobs), workers, func(i int) error {
		s := jobs[i]
		if _, err := play(ctx, f.entry, s, nil, false); err != nil {
			return fmt.Errorf("pre-warm %s rung %d: %w", s.clip, s.rung, err)
		}
		return nil
	}); err != nil {
		return err
	}
	owner := f.nodes[0]
	budget := int64(float64(owner.store.Bytes()) * f.wl.cacheShare)
	if f.wl.nodes == 1 && budget > 0 {
		owner.srv.SetCacheCapacity(budget)
	}
	for i := 1; i < f.wl.nodes; i++ {
		if err := f.bootNode(i, budget); err != nil {
			return err
		}
	}
	return nil
}

// parallel runs fn(0..n-1) on workers goroutines and returns the first
// error; after an error no new index starts.
func parallel(n, workers int, fn func(i int) error) error {
	var (
		mu    sync.Mutex
		next  int
		first error
		wg    sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= n || first != nil {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}
