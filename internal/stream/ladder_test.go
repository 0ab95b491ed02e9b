package stream

import (
	"testing"
	"time"

	"repro/internal/adaptive"
	"repro/internal/annstore"
	"repro/internal/battery"
	"repro/internal/compensate"
	"repro/internal/core"
	"repro/internal/display"
	"repro/internal/faults"
	"repro/internal/frame"
	"repro/internal/obs"
	"repro/internal/video"
)

// abrSeconds is the abr test clip's content length in seconds.
const abrSeconds = 8.0

// abrCatalog builds the adaptive-ladder test clip: 16 strongly distinct
// half-second scenes at 8 fps (64 frames), so the ladder gets a
// decision opportunity every 4 frames and the scene detector finds the
// same boundaries the GOP (4) aligns switches to.
func abrCatalog() map[string]core.Source {
	var scenes []video.SceneSpec
	for i := 0; i < 16; i++ {
		s := video.SceneSpec{Frames: 4, BaseLuma: 0.15, LumaSpread: 0.08,
			MaxLuma: 0.7, HighlightFrac: 0.01, Hue: float64(i) / 16}
		if i%2 == 1 {
			s.BaseLuma, s.MaxLuma = 0.5, 0.98
		}
		scenes = append(scenes, s)
	}
	clip := video.MustNew("abr", 32, 24, 8, 17, scenes)
	return map[string]core.Source{"abr": core.ClipSource{Clip: clip}}
}

// abrServer starts a ladder-test server on the given listener config:
// ln nil listens plainly, otherwise the server serves the provided
// (typically fault-wrapped) listener.
func abrServer(t *testing.T) *Server {
	t.Helper()
	s := NewServer(abrCatalog())
	s.SetLogf(quiet)
	s.SetEncodeConfig(EncodeConfig{GOP: 4})
	return s
}

// playAbr plays the abr clip recording per-frame digests, checking emit
// continuity like playRecorded.
func playAbr(t *testing.T, client *Client, addr string, quality float64) (*PlayResult, []uint64) {
	t.Helper()
	var digests []uint64
	client.OnFrame = func(i int, f *frame.Frame, backlight int) {
		if i == 0 {
			digests = digests[:0]
		}
		if i != len(digests) {
			t.Errorf("OnFrame index %d, want %d (duplicate or skipped emit)", i, len(digests))
		}
		digests = append(digests, frameDigest(f))
	}
	res, err := client.Play(addr, "abr", quality)
	if err != nil {
		t.Fatal(err)
	}
	return res, digests
}

// fixedRungDigests plays the clip as a plain fixed-quality session
// at each requested rung, returning per-rung frame digests — the
// reference the adaptive session's frames must be bit-identical to.
func fixedRungDigests(t *testing.T, addr string, rungs map[int]bool) map[int][]uint64 {
	t.Helper()
	out := map[int][]uint64{}
	for rung := range rungs {
		// Request the middle of the rung's budget bracket, clear of the
		// wire quantization at its edges.
		_, d := playAbr(t, &Client{Device: display.IPAQ5555()}, addr, compensate.QualityLevels[rung]+0.025)
		out[rung] = d
	}
	return out
}

// assertRungIdentity checks every adaptive frame against the fixed
// stream of the rung it was served at.
func assertRungIdentity(t *testing.T, res *PlayResult, digests []uint64, fixed map[int][]uint64) {
	t.Helper()
	if len(res.RungByFrame) != len(digests) {
		t.Fatalf("RungByFrame has %d entries for %d frames", len(res.RungByFrame), len(digests))
	}
	for i, rung := range res.RungByFrame {
		ref := fixed[int(rung)]
		if i >= len(ref) {
			t.Fatalf("fixed run at rung %d has only %d frames", rung, len(ref))
		}
		if digests[i] != ref[i] {
			t.Fatalf("frame %d (rung %d) not bit-identical to that rung's fixed stream", i, rung)
		}
	}
}

// TestChaosLadderWalksDownAndRecovers is the tentpole end-to-end check:
// under a phased bandwidth throttle the session walks down the quality
// ladder instead of stalling, holds within the switch-rate bound, walks
// back up once the link recovers, completes every frame, and every
// frame is bit-identical to the fixed-quality stream of the rung it was
// served at.
func TestChaosLadderWalksDownAndRecovers(t *testing.T) {
	// Clean reference server: measures the stream and provides the
	// fixed-rung reference digests (identical variant bytes, no faults).
	// Playing every rung here also writes each variant through to a
	// store the throttled server shares, so no rung switch below waits
	// on an encode: the playout lead at every ladder decision is set by
	// the byte-scheduled throttle alone, not by how fast this host
	// encodes (the race detector and a loaded CPU slow encodes several
	// fold, and every stall deepens the lag the recovery must undo).
	st, err := annstore.Open(t.TempDir(), annstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	ref := abrServer(t)
	ref.SetStore(st)
	refAddr, err := ref.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ref.Close)
	clean, _ := playAbr(t, &Client{Device: display.IPAQ5555()}, refAddr.String(), 0)
	if clean.Scenes != 16 {
		t.Fatalf("scene detection found %d scenes, want 16 (clip/test drifted)", clean.Scenes)
	}
	allRungs := map[int]bool{}
	for r := range compensate.QualityLevels {
		allRungs[r] = true
	}
	fixed := fixedRungDigests(t, refAddr.String(), allRungs)

	// Phased throttle, scheduled in bytes of the clean stream: a healthy
	// start, a drain phase well below the real-time rate, then a fat
	// recovery pipe. The drain ends before the clip's midpoint, so the
	// lead has half the clip to climb back past UpLead.
	total := int64(clean.BytesStream)
	avgBps := int(float64(total) / abrSeconds)
	s := abrServer(t)
	s.SetStore(st)
	ln := newLocalListener(t)
	s.Serve(faults.WrapListener(ln, faults.Config{Seed: 9, ThrottlePhases: []faults.ThrottlePhase{
		{Bytes: total * 15 / 100, BPS: 0},
		{Bytes: total * 20 / 100, BPS: avgBps * 2 / 5},
		{Bytes: 0, BPS: avgBps * 10},
	}}))
	t.Cleanup(s.Close)

	reg := obs.NewRegistry()
	client := &Client{
		Device:      display.IPAQ5555(),
		Obs:         reg,
		ReadTimeout: 30 * time.Second,
		Ladder: &adaptive.LadderConfig{
			DownLead: 0.4, UpLead: 1.0,
			MinDwell: 1, UpHold: 1,
			MaxSwitches: 10, Window: 32,
		},
	}
	res, digests := playAbr(t, client, ln.Addr().String(), 0)

	if res.Frames != clean.Frames {
		t.Fatalf("delivered %d frames, want %d", res.Frames, clean.Frames)
	}
	// Walked down under the throttle, recovered after it.
	worst, downs, ups := 0, 0, 0
	for i, r := range res.RungByFrame {
		if int(r) > worst {
			worst = int(r)
		}
		if i > 0 {
			if r > res.RungByFrame[i-1] {
				downs++
			}
			if r < res.RungByFrame[i-1] {
				ups++
			}
		}
	}
	if worst < 1 {
		t.Error("ladder never walked down under the throttle")
	}
	if downs < 1 || ups < 1 {
		t.Errorf("transitions: %d down, %d up; want at least one of each", downs, ups)
	}
	if res.FinalRung >= worst {
		t.Errorf("final rung %d did not recover from worst rung %d", res.FinalRung, worst)
	}
	// Bounded switch rate (few, small switches — arXiv 2305.15117), and
	// the stall never exceeded the rebuffer threshold.
	if res.QualitySwitches != downs+ups {
		t.Errorf("QualitySwitches = %d, RungByFrame shows %d", res.QualitySwitches, downs+ups)
	}
	if res.QualitySwitches < 2 || res.QualitySwitches > 12 {
		t.Errorf("QualitySwitches = %d, want 2..12", res.QualitySwitches)
	}
	if res.MaxLagSeconds >= 3.5 {
		t.Errorf("MaxLagSeconds = %.2f, want < 3.5 (rebuffer threshold)", res.MaxLagSeconds)
	}
	// Each frame bit-identical to its rung's fixed-quality stream.
	assertRungIdentity(t, res, digests, fixed)
	t.Logf("ladder run: %d switches (%d down, %d up), worst rung %d, final rung %d, max lag %.2fs, rung seconds %v",
		res.QualitySwitches, downs, ups, worst, res.FinalRung, res.MaxLagSeconds, res.Ledger.RungSeconds)
	// Ledger and metrics agree with the wire.
	if res.Ledger.QualitySwitches != res.QualitySwitches {
		t.Errorf("ledger counted %d switches, session %d", res.Ledger.QualitySwitches, res.QualitySwitches)
	}
	if len(res.Ledger.RungSeconds) < 2 {
		t.Errorf("ledger rung seconds %v, want time on 2+ rungs", res.Ledger.RungSeconds)
	}
	down := reg.Counter("quality_switch_total", "", obs.L("role", "client"), obs.L("direction", "down")).Value()
	up := reg.Counter("quality_switch_total", "", obs.L("role", "client"), obs.L("direction", "up")).Value()
	if down == 0 || up == 0 {
		t.Errorf("quality_switch_total{client} down=%d up=%d, want both nonzero", down, up)
	}
}

// TestAdaptiveMatchesFixedWhenHealthy: on a clean link an adaptive
// session must behave exactly like the fixed session it was requested
// as — zero switches, bit-identical frames, the same backlight on every
// frame, and the same power ledger.
func TestAdaptiveMatchesFixedWhenHealthy(t *testing.T) {
	s := abrServer(t)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	play := func(client *Client) (*PlayResult, []uint64, []int) {
		var digests []uint64
		var levels []int
		client.OnFrame = func(i int, f *frame.Frame, backlight int) {
			digests = append(digests, frameDigest(f))
			levels = append(levels, backlight)
		}
		res, err := client.Play(addr.String(), "abr", 0.10)
		if err != nil {
			t.Fatal(err)
		}
		return res, digests, levels
	}
	fixed, wantDigests, wantLevels := play(&Client{Device: display.IPAQ5555()})
	res, digests, levels := play(&Client{Device: display.IPAQ5555(), Ladder: &adaptive.LadderConfig{}})
	if res.QualitySwitches != 0 {
		t.Errorf("healthy session switched %d times, want 0", res.QualitySwitches)
	}
	if res.Frames != fixed.Frames || len(digests) != len(wantDigests) {
		t.Fatalf("adaptive delivered %d frames, fixed %d", res.Frames, fixed.Frames)
	}
	for i := range wantDigests {
		if digests[i] != wantDigests[i] {
			t.Fatalf("frame %d differs between healthy adaptive and fixed sessions", i)
		}
		if levels[i] != wantLevels[i] {
			t.Fatalf("frame %d at backlight %d adaptive, %d fixed", i, levels[i], wantLevels[i])
		}
	}
	if res.FinalRung != 2 {
		t.Errorf("final rung = %d, want 2 (the requested 0.10 budget)", res.FinalRung)
	}

	got, want := res.Ledger, fixed.Ledger
	if len(got.Scenes) != len(want.Scenes) {
		t.Fatalf("ledger has %d scenes adaptive, %d fixed", len(got.Scenes), len(want.Scenes))
	}
	for i, g := range got.Scenes {
		w := want.Scenes[i]
		if g.Index != w.Index || g.Level != w.Level || g.Frames != w.Frames {
			t.Errorf("ledger scene %d = {index %d, level %d, frames %d} adaptive, {%d, %d, %d} fixed",
				i, g.Index, g.Level, g.Frames, w.Index, w.Level, w.Frames)
		}
	}
	if got.SavedJoules != want.SavedJoules || got.BaselineJoules != want.BaselineJoules {
		t.Errorf("ledger energy: saved %v of %v J adaptive, %v of %v J fixed",
			got.SavedJoules, got.BaselineJoules, want.SavedJoules, want.BaselineJoules)
	}
}

// TestChaosLadderResume: a mid-stream reset during an adaptive session
// resumes at the rung in force, still as an adaptive session, and
// delivers every frame exactly once.
func TestChaosLadderResume(t *testing.T) {
	s := abrServer(t)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	clean, wantDigests := playAbr(t, &Client{Device: display.IPAQ5555(), Ladder: &adaptive.LadderConfig{}}, addr.String(), 0)
	inj := faults.NewInjector(faults.Config{Seed: 21, ResetAfter: []int64{int64(clean.BytesStream) / 2}})
	client := &Client{
		Device: display.IPAQ5555(),
		Ladder: &adaptive.LadderConfig{},
		Dial:   inj.Dialer(nil),
		Retry:  RetryPolicy{MaxAttempts: 4, BaseDelay: 5 * time.Millisecond},
	}
	res, digests := playAbr(t, client, addr.String(), 0)
	if res.Resumes == 0 {
		t.Error("resumes = 0, want at least one after the injected reset")
	}
	if res.Frames != clean.Frames {
		t.Fatalf("delivered %d frames, want %d", res.Frames, clean.Frames)
	}
	for i := range wantDigests {
		if digests[i] != wantDigests[i] {
			t.Fatalf("frame %d decoded differently across the resume", i)
		}
	}
}

// TestChaosLadderBatteryFloor: a draining battery pins the ladder to
// the floor rung even on a perfect link — the hard constraint from the
// battery gauge bypasses network hysteresis.
func TestChaosLadderBatteryFloor(t *testing.T) {
	// Clean server: per-rung reference digests and the stream size for
	// pacing. The battery run itself goes through a mild (4× real-time)
	// throttle so the control loop runs while frames are still in
	// flight — on a raw loopback the whole clip lands in socket buffers
	// before the first switch request crosses the wire.
	ref := abrServer(t)
	refListen, err := ref.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ref.Close)
	refAddr := refListen.String()
	clean, _ := playAbr(t, &Client{Device: display.IPAQ5555()}, refAddr, 0)

	avgBps := int(float64(clean.BytesStream) / abrSeconds)
	s := abrServer(t)
	ln := newLocalListener(t)
	s.Serve(faults.WrapListener(ln, faults.Config{Seed: 5, ThrottlePhases: []faults.ThrottlePhase{
		{Bytes: 0, BPS: avgBps * 4},
	}}))
	t.Cleanup(s.Close)

	gauge := battery.NewGaugeWh(0.001) // ~3.6 J: flat after ~2s of playback
	client := &Client{
		Device:      display.IPAQ5555(),
		ReadTimeout: 30 * time.Second,
		Ladder:      &adaptive.LadderConfig{MinDwell: 1, Battery: gauge},
	}
	res, digests := playAbr(t, client, ln.Addr().String(), 0)
	if res.QualitySwitches == 0 {
		t.Fatal("battery drain forced no switches")
	}
	floor := len(compensate.QualityLevels) - 1
	if res.FinalRung != floor {
		t.Errorf("final rung = %d, want floor %d", res.FinalRung, floor)
	}
	if last := res.RungByFrame[len(res.RungByFrame)-1]; int(last) != floor {
		t.Errorf("last frame served at rung %d, want floor %d", last, floor)
	}
	rungs := map[int]bool{}
	for _, r := range res.RungByFrame {
		rungs[int(r)] = true
	}
	assertRungIdentity(t, res, digests, fixedRungDigests(t, refAddr, rungs))
}

// TestProxyAdaptiveSession: the proxy serves adaptive sessions too — an adaptive
// session through the proxy tier completes with the same frames as a
// fixed session served directly.
func TestProxyAdaptiveSession(t *testing.T) {
	upstream := abrServer(t)
	upAddr, err := upstream.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(upstream.Close)

	p := NewProxy(upAddr.String())
	p.SetLogf(quiet)
	addr, err := p.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)

	client := &Client{Device: display.IPAQ5555(), Ladder: &adaptive.LadderConfig{}}
	res, err := client.Play(addr.String(), "abr", 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if res.RungByFrame == nil {
		t.Error("proxied session reported no ladder state")
	}
	if res.Frames != 64 {
		t.Errorf("frames = %d, want 64", res.Frames)
	}
	if res.QualitySwitches != 0 {
		t.Errorf("healthy proxied session switched %d times, want 0", res.QualitySwitches)
	}
}
