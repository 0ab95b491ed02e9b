package power

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/display"
	"repro/internal/obs"
)

// playSession drives a ledger through a two-scene session and returns
// the reference traces built the way the offline model builds them.
func playSession(l *Ledger, network bool) (got, ref *Trace) {
	got, ref = &Trace{}, &Trace{}
	scenes := []struct {
		level  int
		frames int
	}{{180, 20}, {255, 10}}
	frame := 0.1
	for i, sc := range scenes {
		l.StartScene(i, sc.level)
		for f := 0; f < sc.frames; f++ {
			l.Frame(frame, sc.level)
			st := State{Decoding: true, NetworkActive: network, BacklightLevel: sc.level}
			got.Append(frame, st)
			st.BacklightLevel = display.MaxLevel
			ref.Append(frame, st)
		}
	}
	return got, ref
}

func TestLedgerMatchesOfflineModel(t *testing.T) {
	dev := display.IPAQ5555()
	model := DefaultModel(dev)
	led := NewLedger(dev)
	got, ref := playSession(led, true)
	rep := led.Report()

	if want := 100 * model.Savings(ref, got); math.Abs(rep.SavedPct-want) > 1e-9 {
		t.Errorf("SavedPct = %v, want offline model's %v", rep.SavedPct, want)
	}
	if want := 100 * model.BacklightSavings(ref, got); math.Abs(rep.BacklightSavedPct-want) > 1e-9 {
		t.Errorf("BacklightSavedPct = %v, want %v", rep.BacklightSavedPct, want)
	}
	if want := model.Energy(got); math.Abs(rep.SessionJoules-want) > 1e-9 {
		t.Errorf("SessionJoules = %v, want %v", rep.SessionJoules, want)
	}
	if rep.SavedJoules <= 0 {
		t.Errorf("SavedJoules = %v, want > 0 (dimmed below full backlight)", rep.SavedJoules)
	}
	if rep.Frames != 30 || len(rep.Scenes) != 2 || rep.Switches != 1 {
		t.Errorf("frames/scenes/switches = %d/%d/%d, want 30/2/1",
			rep.Frames, len(rep.Scenes), rep.Switches)
	}
	if math.Abs(rep.Seconds-3.0) > 1e-9 {
		t.Errorf("Seconds = %v, want 3.0", rep.Seconds)
	}
	wantAvg := (180.0*20 + 255.0*10) / 30
	if math.Abs(rep.AvgLevel-wantAvg) > 1e-9 {
		t.Errorf("AvgLevel = %v, want %v", rep.AvgLevel, wantAvg)
	}
	sc := rep.Scenes[0]
	if sc.Level != 180 || sc.Frames != 20 || math.Abs(sc.Seconds-2.0) > 1e-9 {
		t.Errorf("scene 0 = %+v, want level 180, 20 frames, 2.0s", sc)
	}
}

func TestLedgerNetworkToggle(t *testing.T) {
	dev := display.IPAQ5555()
	model := DefaultModel(dev)
	led := NewLedger(dev)
	led.SetNetworkActive(false)
	got, ref := playSession(led, false)
	rep := led.Report()
	if want := 100 * model.Savings(ref, got); math.Abs(rep.SavedPct-want) > 1e-9 {
		t.Errorf("offline SavedPct = %v, want %v", rep.SavedPct, want)
	}
	// Without WNIC draw the same backlight delta is a larger share of
	// the whole-device total.
	online := NewLedger(dev)
	playSession(online, true)
	if onRep := online.Report(); rep.SavedPct <= onRep.SavedPct {
		t.Errorf("offline SavedPct %v <= online %v, want larger", rep.SavedPct, onRep.SavedPct)
	}
	lg, lr := led.Traces()
	if lg.Duration() != got.Duration() || lr.Duration() != ref.Duration() {
		t.Error("Traces() does not expose the accumulated traces")
	}
}

func TestLedgerQoS(t *testing.T) {
	led := NewLedger(display.IPAQ5555())
	led.AddWireBytes(1000)
	led.AddAnnotationBytes(47)
	led.Rebuffer(0.5)
	led.Degraded("cycles")
	led.Degraded("cycles") // once per name
	led.Degraded("scenes")
	led.Frame(0.1, 200)
	led.StartScene(0, 128)
	led.Frame(0.1, 128)
	rep := led.Report()
	if rep.Frames != 2 || len(rep.Scenes) != 1 || rep.Scenes[0].Frames != 1 {
		t.Errorf("frames/scenes = %d/%v, want 2 frames, one scene of 1", rep.Frames, rep.Scenes)
	}
	if rep.WireBytes != 1000 || rep.AnnotationBytes != 47 {
		t.Errorf("wire history = %d/%d, want 1000/47", rep.WireBytes, rep.AnnotationBytes)
	}
	if rep.Rebuffers != 1 || math.Abs(rep.StallSeconds-0.5) > 1e-9 {
		t.Errorf("rebuffers = %d (%vs), want 1 (0.5s)", rep.Rebuffers, rep.StallSeconds)
	}
	if len(rep.Degraded) != 2 {
		t.Errorf("degraded = %v, want [cycles scenes]", rep.Degraded)
	}

	s := rep.String()
	if !strings.Contains(s, "power saved: ") {
		t.Errorf("report string missing headline:\n%s", s)
	}
	if !strings.Contains(s, "degraded: cycles, scenes") {
		t.Errorf("report string missing degradations:\n%s", s)
	}
}

func TestLedgerNilSafe(t *testing.T) {
	var l *Ledger
	l.StartScene(0, 100)
	l.Frame(0.1, 100)
	l.AddWireBytes(1)
	l.AddAnnotationBytes(1)
	l.Rebuffer(1)
	l.Degraded("x")
	l.SetNetworkActive(false)
	l.SetRung(2)
	l.QualitySwitch(3)
	if got, ref := l.Traces(); got != nil || ref != nil {
		t.Error("nil ledger Traces() non-nil")
	}
	rep := l.Report() // zero report, must not panic
	if rep.Frames != 0 {
		t.Errorf("nil ledger report = %+v", rep)
	}
	rep.Emit(nil)
	rep.EmitMetrics(nil, "client")
}

func TestLedgerRungAccounting(t *testing.T) {
	led := NewLedger(display.IPAQ5555())
	led.SetRung(2) // session start names a rung without a switch
	led.Frame(0.1, 200)
	led.Frame(0.1, 200)
	led.QualitySwitch(3) // walk down
	led.Frame(0.1, 200)
	led.QualitySwitch(3) // same rung: not a switch
	led.Frame(0.1, 200)
	led.QualitySwitch(2) // walk back up
	led.Frame(0.1, 200)
	rep := led.Report()
	if rep.QualitySwitches != 2 {
		t.Errorf("QualitySwitches = %d, want 2", rep.QualitySwitches)
	}
	if math.Abs(rep.RungSeconds[2]-0.3) > 1e-9 || math.Abs(rep.RungSeconds[3]-0.2) > 1e-9 {
		t.Errorf("RungSeconds = %v, want rung 2: 0.3s, rung 3: 0.2s", rep.RungSeconds)
	}
	if s := rep.String(); !strings.Contains(s, "ladder:  2 quality switches") ||
		!strings.Contains(s, "rung 2: 0.3s") {
		t.Errorf("report string missing ladder line:\n%s", s)
	}

	// Fixed-quality sessions never name a rung and render no ladder line.
	fixed := NewLedger(display.IPAQ5555())
	fixed.Frame(0.1, 200)
	if frep := fixed.Report(); frep.RungSeconds != nil || strings.Contains(frep.String(), "ladder:") {
		t.Errorf("fixed-quality report grew a ladder line: %+v", frep.RungSeconds)
	}
}

func TestLedgerRadioReport(t *testing.T) {
	dev := display.IPAQ5555()
	model := DefaultModel(dev)
	led := NewLedger(dev)
	got, _ := playSession(led, true)
	rep := led.Report()
	if want := model.RadioEnergy(got); math.Abs(rep.RadioJoules-want) > 1e-9 {
		t.Errorf("RadioJoules = %v, want model's %v", rep.RadioJoules, want)
	}
	if rep.RadioActiveSeconds != got.Duration() || rep.RadioIdleSeconds != 0 {
		t.Errorf("radio seconds = %v/%v, want %v/0",
			rep.RadioActiveSeconds, rep.RadioIdleSeconds, got.Duration())
	}
	if !strings.Contains(rep.String(), "radio:") {
		t.Errorf("report string missing radio line:\n%s", rep.String())
	}

	// A local-file session accounts idle radio draw instead.
	local := NewLedger(dev)
	local.SetNetworkActive(false)
	local.Frame(2, 200)
	lrep := local.Report()
	if want := 2 * model.NetworkIdleWatts; math.Abs(lrep.RadioJoules-want) > 1e-9 {
		t.Errorf("idle RadioJoules = %v, want %v", lrep.RadioJoules, want)
	}
	if lrep.RadioActiveSeconds != 0 || lrep.RadioIdleSeconds != 2 {
		t.Errorf("idle radio seconds = %v/%v, want 0/2",
			lrep.RadioActiveSeconds, lrep.RadioIdleSeconds)
	}
}

func TestReportEmit(t *testing.T) {
	led := NewLedger(display.IPAQ5555())
	led.StartScene(0, 180)
	led.Frame(0.1, 180)
	rep := led.Report()

	var buf bytes.Buffer
	rep.Emit(obs.NewLogger(&buf, obs.LevelDebug))
	out := buf.String()
	if !strings.Contains(out, "msg=power_report") || !strings.Contains(out, "saved_pct=") {
		t.Errorf("power_report event missing:\n%s", out)
	}
	if !strings.Contains(out, "msg=power_scene") {
		t.Errorf("per-scene debug event missing:\n%s", out)
	}

	reg := obs.NewRegistry()
	rep.EmitMetrics(reg, "client")
	rep.EmitMetrics(reg, "client")
	if n := reg.Counter("session_total", "", obs.L("role", "client")).Value(); n != 2 {
		t.Errorf("session_total = %d, want 2", n)
	}
	if v := reg.Gauge("power_session_joules", "", obs.L("role", "client")).Value(); v <= 0 {
		t.Errorf("power_session_joules = %v, want > 0 (accumulating)", v)
	}
	if v := reg.Gauge("power_saved_percent_last", "", obs.L("role", "client")).Value(); math.Abs(v-rep.SavedPct) > 1e-9 {
		t.Errorf("power_saved_percent_last = %v, want %v", v, rep.SavedPct)
	}
}
