package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/annotation"
	"repro/internal/annstore"
	"repro/internal/cluster"
	"repro/internal/codec"
	"repro/internal/compensate"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/scene"
	"repro/internal/stream"
)

const (
	// replayPasses is how often each replay repeats; a replay metric is
	// the median pass.
	replayPasses = 3
	// replayClips bounds the clips a replay works on.
	replayClips = 4
	// replayKeys bounds the stored artifacts the store replay reads and
	// writes.
	replayKeys = 48
)

// replay times each layer's functions on one goroutine, after the timed
// phase, on the workload's own inputs: the clips its timed sessions
// played, the response streams its first fixed-rung sessions received,
// and the artifacts its stores hold. fill and upstream ask for a
// replayed peer fill and upstream fetch, for workloads whose sessions
// never crossed those seams.
func replay(ctx context.Context, ph *phase, set func(string, float64, int), fill, upstream bool) error {
	cat := replayCatalog(ph)
	if err := replayPipeline(ctx, cat, set); err != nil {
		return err
	}
	if err := replayDecode(ph.tr.streams, set); err != nil {
		return err
	}
	if err := replayStore(ph.fl, set); err != nil {
		return err
	}
	if fill {
		f, err := replayFill(ctx, cat)
		if err != nil {
			return err
		}
		set("cluster.fill_ms_p50", quantile(f, 0.5), len(f))
		set("cluster.fill_ms_p90", quantile(f, 0.9), len(f))
	}
	if upstream {
		u, err := replayUpstream(ph.fl.nodes[0].addr, cat)
		if err != nil {
			return err
		}
		set("proxy.upstream_ms_p50", quantile(u, 0.5), len(u))
	}
	return nil
}

// replayCatalog is the first few clips the timed sessions played.
func replayCatalog(ph *phase) *catalog {
	sub := &catalog{srcs: map[string]core.Source{}}
	seen := map[string]bool{}
	for _, r := range ph.recs {
		if r.err != nil || seen[r.clip] {
			continue
		}
		seen[r.clip] = true
		sub.names = append(sub.names, r.clip)
		if len(sub.names) == replayClips {
			break
		}
	}
	sub.clips = ph.cat.clips
	return sub.clone()
}

// replayPipeline times the offline analysis and the encode of one
// quality variant, stage by stage, on fresh copies of the clips.
func replayPipeline(ctx context.Context, cat *catalog, set func(string, float64, int)) error {
	var render, stats, detect, track, comp, enc, pipe, digest [replayPasses]time.Duration
	frames := 0
	for p := 0; p < replayPasses; p++ {
		fresh := cat.clone()
		frames = 0
		for _, name := range fresh.names {
			clip := fresh.clips[name]
			n := clip.TotalFrames()
			frames += n
			fs := make([]*frame.Frame, n)
			for i := range fs {
				t := time.Now()
				fs[i] = clip.Frame(i)
				render[p] += time.Since(t)
			}
			st := make([]scene.FrameStats, n)
			for i, f := range fs {
				t := time.Now()
				st[i] = scene.StatsOf(f)
				stats[p] += time.Since(t)
			}
			t := time.Now()
			det := scene.NewDetector(scene.DefaultConfig(clip.FPS))
			for _, s := range st {
				det.Feed(s)
			}
			scenes := det.Finish()
			detect[p] += time.Since(t)
			t = time.Now()
			tk := annotation.FromStatsParallel(clip.FPS, scenes, st, nil, 1)
			track[p] += time.Since(t)
			e, err := codec.NewEncoder(clip.W, clip.H, clip.FPS, 4)
			if err != nil {
				return err
			}
			cur := tk.NewCursor(tk.QualityIndex(compensate.QualityLevels[2] + 0.025))
			for _, f := range fs {
				target, _ := cur.Next()
				t := time.Now()
				cf := core.CompensateFrame(f, target, compensate.ContrastEnhancement)
				comp[p] += time.Since(t)
				t = time.Now()
				if _, err := e.Encode(cf); err != nil {
					return err
				}
				enc[p] += time.Since(t)
			}
		}
		pipeCat, digestCat := cat.clone(), cat.clone()
		for _, name := range cat.names {
			t := time.Now()
			if _, _, err := core.AnnotatePipeline(ctx, pipeCat.srcs[name], scene.DefaultConfig(fps), nil, core.AnnotateOptions{Workers: 1}); err != nil {
				return err
			}
			pipe[p] += time.Since(t)
			t = time.Now()
			core.SourceDigest(digestCat.srcs[name])
			digest[p] += time.Since(t)
		}
	}
	clips := len(cat.names)
	for _, s := range []struct {
		name  string
		d     [replayPasses]time.Duration
		items int
		unit  time.Duration
	}{
		{"video.render_us_per_frame", render, frames, time.Microsecond},
		{"scene.stats_us_per_frame", stats, frames, time.Microsecond},
		{"scene.detect_us_per_clip", detect, clips, time.Microsecond},
		{"annotation.track_us_per_clip", track, clips, time.Microsecond},
		{"compensate.us_per_frame", comp, frames, time.Microsecond},
		{"codec.encode_us_per_frame", enc, frames, time.Microsecond},
		{"core.pipeline_ms_per_clip", pipe, clips, time.Millisecond},
		{"core.digest_ms_per_clip", digest, clips, time.Millisecond},
	} {
		var vals []float64
		for _, d := range s.d {
			vals = append(vals, float64(d)/float64(s.items)/float64(s.unit))
		}
		set(s.name, median(vals), s.items*replayPasses)
	}
	return nil
}

// replayDecode parses and decodes the recorded response streams the
// way the client does, timing each and counting decode allocations.
func replayDecode(streams [][]byte, set func(string, float64, int)) error {
	if len(streams) == 0 {
		return fmt.Errorf("no response stream was recorded for the decode replay")
	}
	var mallocs uint64
	var m0, m1 runtime.MemStats
	var parses, decodes []float64
	frames := 0
	for p := 0; p < replayPasses; p++ {
		var parse, decode time.Duration
		frames = 0
		for _, s := range streams {
			t := time.Now()
			rd, err := container.NewReader(bytes.NewReader(s))
			if err != nil {
				return fmt.Errorf("replay parse: %w", err)
			}
			var efs []*codec.EncodedFrame
			for {
				ef, err := rd.ReadFrame()
				if err == io.EOF {
					break
				}
				if err != nil {
					return fmt.Errorf("replay parse: %w", err)
				}
				efs = append(efs, ef)
			}
			parse += time.Since(t)
			hdr := rd.Header()
			dec, err := codec.NewDecoder(hdr.W, hdr.H)
			if err != nil {
				return err
			}
			runtime.ReadMemStats(&m0)
			t = time.Now()
			for _, ef := range efs {
				if _, err := dec.Decode(ef); err != nil {
					return fmt.Errorf("replay decode: %w", err)
				}
			}
			decode += time.Since(t)
			runtime.ReadMemStats(&m1)
			mallocs += m1.Mallocs - m0.Mallocs
			frames += len(efs)
		}
		parses = append(parses, us(parse)/float64(frames))
		decodes = append(decodes, us(decode)/float64(frames))
	}
	n := frames * replayPasses
	set("container.parse_us_per_frame", median(parses), n)
	set("codec.decode_us_per_frame", median(decodes), n)
	set("codec.decode_allocs_per_frame", float64(mallocs)/float64(n), n)
	return nil
}

// replayStore reads every artifact of the first store back (Get and
// GetRef), then writes the artifacts into a fresh store per pass.
func replayStore(fl *fleet, set func(string, float64, int)) error {
	st := fl.nodes[0].store
	keys := st.Keys()
	if len(keys) > replayKeys {
		keys = keys[:replayKeys]
	}
	payloads := make([][]byte, len(keys))
	var get, ref, put []float64
	for p := 0; p < replayPasses; p++ {
		for i, k := range keys {
			t := time.Now()
			data, ok := st.Get(k)
			get = append(get, us(time.Since(t)))
			if !ok {
				return fmt.Errorf("replay: stored artifact %s vanished", k.Kind)
			}
			payloads[i] = data
			t = time.Now()
			st.GetRef(k)
			ref = append(ref, us(time.Since(t)))
		}
		scratch, err := annstore.Open(filepath.Join(fl.dir, fmt.Sprintf("replay%d", p)), annstore.Options{})
		if err != nil {
			return err
		}
		for i, k := range keys {
			t := time.Now()
			err := scratch.Put(k, payloads[i])
			put = append(put, ms(time.Since(t)))
			if err != nil {
				scratch.Close()
				return err
			}
		}
		if err := scratch.Close(); err != nil {
			return err
		}
	}
	set("annstore.get_us_p50", quantile(get, 0.5), len(get))
	set("annstore.getref_us_p50", quantile(ref, 0.5), len(ref))
	set("annstore.put_ms_p50", quantile(put, 0.5), len(put))
	set("annstore.put_ms_p90", quantile(put, 0.9), len(put))
	return nil
}

// replayFill boots a two-member cluster over the clips and times AFR1
// fetches of each clip's track, level table and one variant from the
// member that owns it, once the owner has computed them.
func replayFill(ctx context.Context, cat *catalog) ([]float64, error) {
	members := memberNames(2)
	addrs := map[string]string{}
	var srvs []*stream.Server
	defer func() {
		for _, s := range srvs {
			s.Close()
		}
	}()
	var lns []net.Listener
	defer func() {
		// Serving listeners close with their server; this catches the
		// ones an early return left unserved.
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for range members {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
	}
	for i, m := range members {
		addrs[m] = lns[i].Addr().String()
	}
	dial := func(network, addr string) (net.Conn, error) { return net.Dial(network, addrs[addr]) }
	nodes := map[string]*cluster.Node{}
	for i, m := range members {
		cn, err := cluster.New(cluster.Config{Self: m, Peers: []string{members[1-i]}, Dial: dial})
		if err != nil {
			return nil, err
		}
		srv := stream.NewServer(cat.srcs)
		srv.SetLogf(quiet)
		srv.SetCluster(cn)
		srv.Serve(lns[i])
		srvs = append(srvs, srv)
		nodes[m] = cn
	}
	var out []float64
	for _, name := range cat.names {
		dg := core.SourceDigest(cat.srcs[name])
		for _, req := range []cluster.FetchRequest{
			{Kind: "track", Quality: -1},
			{Kind: "levels", Quality: -1, Device: devices[0]},
			// The suffix names the server's default encoder settings
			// (GOP of one second, quantiser 4), as its variants carry.
			{Kind: "variant", Quality: rungs[1], Suffix: fmt.Sprintf("+g%dq%d", fps, 4)},
		} {
			req.Digest, req.Clip = dg, name
			owner := cluster.Owner(members, cluster.RouteKey(req.Kind, dg))
			requester := nodes[members[0]]
			if owner == members[0] {
				requester = nodes[members[1]]
			}
			for p := 0; p <= replayPasses; p++ {
				t := time.Now()
				if _, err := requester.Fetch(ctx, owner, req); err != nil {
					return nil, fmt.Errorf("replay fill %s %s: %w", req.Kind, name, err)
				}
				if p > 0 { // the first fetch makes the owner compute
					out = append(out, ms(time.Since(t)))
				}
			}
		}
	}
	return out, nil
}

// replayUpstream times what a proxy does on every request: fetch the
// clip's raw stream from the server and decode every frame.
func replayUpstream(addr string, cat *catalog) ([]float64, error) {
	var out []float64
	for _, name := range cat.names {
		for p := 0; p <= replayPasses; p++ {
			t := time.Now()
			if err := rawFetch(addr, name); err != nil {
				return nil, fmt.Errorf("replay upstream fetch %s: %w", name, err)
			}
			if p > 0 { // the first fetch makes the server encode the raw stream
				out = append(out, ms(time.Since(t)))
			}
		}
	}
	return out, nil
}

func rawFetch(addr, clip string) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return err
	}
	if err := stream.WriteRequest(conn, stream.Request{Clip: clip, Device: devices[0], Mode: stream.ModeRaw}); err != nil {
		return err
	}
	magic, remoteErr, err := stream.ReadResponseMagic(conn)
	if err != nil {
		return err
	}
	if remoteErr != nil {
		return remoteErr
	}
	rd, err := container.NewReader(io.MultiReader(bytes.NewReader(magic[:]), conn))
	if err != nil {
		return err
	}
	hdr := rd.Header()
	dec, err := codec.NewDecoder(hdr.W, hdr.H)
	if err != nil {
		return err
	}
	for {
		ef, err := rd.ReadFrame()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if _, err := dec.Decode(ef); err != nil {
			return err
		}
	}
}
