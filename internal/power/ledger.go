package power

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/display"
	"repro/internal/obs"
)

// Ledger is the per-session power accounting the paper's evaluation
// implies but an offline model cannot provide: fed frame by frame from
// the playback loop, it tracks per-scene backlight levels, integrates
// modeled energy against a full-backlight baseline through the same
// Model the offline results use (so the session report and the offline
// estimate agree to within rounding), and carries the QoS side of the
// bargain — bytes on the wire, rebuffer/stall time, dropped side
// channels — so a savings number is never quoted without its cost.
type Ledger struct {
	model *Model
	got   Trace
	ref   Trace

	scenes    []LedgerScene
	frames    int
	levelSum  float64
	switches  int
	maxStep   int
	prevLevel int

	// rung is the quality-ladder rung (quality index) current frames are
	// served at; -1 until SetRung/QualitySwitch names one. rungSeconds
	// accumulates playback seconds per rung, qswitches counts mid-stream
	// rung changes (the adaptive ladder's QoS cost).
	rung        int
	rungSeconds map[int]float64
	qswitches   int

	// noNetwork flips frame accounting to NetworkActive=false (local
	// file playback); the zero value models a streaming session.
	noNetwork bool

	wireBytes  int64
	annBytes   int64
	rebuffers  int
	stallSecs  float64
	degraded   []string
	degradedIx map[string]bool
}

// LedgerScene is the accounting of one annotated scene: the backlight
// level it played at and how long it ran.
type LedgerScene struct {
	Index   int
	Level   int
	Frames  int
	Seconds float64
}

// NewLedger builds a ledger for a session on the given device, modeled
// under DefaultModel.
func NewLedger(dev *display.Profile) *Ledger {
	return &Ledger{model: DefaultModel(dev), prevLevel: -1, rung: -1}
}

// NewLedgerModel builds a ledger under an explicit power model.
func NewLedgerModel(m *Model) *Ledger {
	return &Ledger{model: m, prevLevel: -1, rung: -1}
}

// SetRung names the quality-ladder rung subsequent frames play at
// without counting a switch (session start, or a resume that continues
// at the rung already in force).
func (l *Ledger) SetRung(rung int) {
	if l != nil {
		l.rung = rung
	}
}

// QualitySwitch records a mid-stream rung change: subsequent frames
// account under the new rung, and the switch counts toward the
// session's quality-switch total (a quality-steady session keeps this
// number small).
func (l *Ledger) QualitySwitch(rung int) {
	if l == nil {
		return
	}
	if l.rung >= 0 && rung != l.rung {
		l.qswitches++
	}
	l.rung = rung
}

// SetNetworkActive sets whether frames account WNIC power. Sessions fed
// from the network leave it true (the default); a player decoding a
// local file sets it false so its report integrates the same states as
// the offline model.
func (l *Ledger) SetNetworkActive(on bool) {
	if l != nil {
		l.noNetwork = !on
	}
}

// Traces exposes the session and full-backlight reference traces, for
// callers that feed them to the DAQ simulation or the CSV writer.
func (l *Ledger) Traces() (got, ref *Trace) {
	if l == nil {
		return nil, nil
	}
	return &l.got, &l.ref
}

// StartScene marks the start of annotated scene index playing at the
// given backlight level.
func (l *Ledger) StartScene(index, level int) {
	if l == nil {
		return
	}
	l.scenes = append(l.scenes, LedgerScene{Index: index, Level: level})
}

// Frame accounts one displayed frame of the given duration at the given
// backlight level, integrating both the session trace and the
// full-backlight reference.
func (l *Ledger) Frame(seconds float64, level int) {
	if l == nil {
		return
	}
	state := State{Decoding: true, NetworkActive: !l.noNetwork, BacklightLevel: level}
	l.got.Append(seconds, state)
	state.BacklightLevel = display.MaxLevel
	l.ref.Append(seconds, state)
	l.frames++
	l.levelSum += float64(level)
	if l.prevLevel >= 0 && level != l.prevLevel {
		l.switches++
		l.maxStep = max(l.maxStep, level-l.prevLevel, l.prevLevel-level)
	}
	l.prevLevel = level
	if n := len(l.scenes); n > 0 {
		l.scenes[n-1].Frames++
		l.scenes[n-1].Seconds += seconds
	}
	if l.rung >= 0 {
		if l.rungSeconds == nil {
			l.rungSeconds = map[int]float64{}
		}
		l.rungSeconds[l.rung] += seconds
	}
}

// AddWireBytes accounts bytes received on the stream connection.
func (l *Ledger) AddWireBytes(n int64) {
	if l != nil {
		l.wireBytes += n
	}
}

// AddAnnotationBytes accounts annotation side-channel bytes (the
// overhead the paper argues is negligible).
func (l *Ledger) AddAnnotationBytes(n int64) {
	if l != nil {
		l.annBytes += n
	}
}

// Rebuffer accounts one playback stall of the given duration (a
// reconnect backoff, an empty buffer).
func (l *Ledger) Rebuffer(seconds float64) {
	if l == nil {
		return
	}
	l.rebuffers++
	l.stallSecs += seconds
}

// Degraded records a dropped side channel (once per name).
func (l *Ledger) Degraded(what string) {
	if l == nil {
		return
	}
	if l.degradedIx == nil {
		l.degradedIx = map[string]bool{}
	}
	if !l.degradedIx[what] {
		l.degradedIx[what] = true
		l.degraded = append(l.degraded, what)
	}
}

// Report is the sealed end-of-session accounting.
type Report struct {
	Frames   int
	Scenes   []LedgerScene
	Seconds  float64
	AvgLevel float64
	Switches int
	// MaxStep is the largest single backlight level change.
	MaxStep int

	// Modeled whole-device energy of the session and of the same
	// session at full backlight, in joules, integrated under the same
	// model as the offline estimates.
	SessionJoules  float64
	BaselineJoules float64
	SavedJoules    float64
	// SavedPct is 100 × the fractional whole-device energy saved
	// (== Model.Savings); BacklightSavedPct restricts it to the
	// backlight component (== Model.BacklightSavings, the Figure 9
	// quantity).
	SavedPct          float64
	BacklightSavedPct float64
	AvgWatts          float64

	// RadioJoules is the wireless-interface share of SessionJoules;
	// RadioActiveSeconds/RadioIdleSeconds split the session into
	// radio-on and radio-sleep time (arXiv 1407.7667's dominant
	// component, accounted separately so batching wins show up).
	RadioJoules        float64
	RadioActiveSeconds float64
	RadioIdleSeconds   float64

	// QualitySwitches counts mid-stream quality-ladder rung changes;
	// RungSeconds is playback time per rung (nil when the session never
	// named a rung — fixed-quality playback).
	QualitySwitches int
	RungSeconds     map[int]float64

	WireBytes       int64
	AnnotationBytes int64
	Rebuffers       int
	StallSeconds    float64
	Degraded        []string
}

// Report seals the ledger into its end-of-session report.
func (l *Ledger) Report() Report {
	if l == nil {
		return Report{}
	}
	rep := Report{
		Frames:          l.frames,
		Scenes:          l.scenes,
		Seconds:         l.got.Duration(),
		Switches:        l.switches,
		MaxStep:         l.maxStep,
		SessionJoules:   l.model.Energy(&l.got),
		BaselineJoules:  l.model.Energy(&l.ref),
		WireBytes:       l.wireBytes,
		AnnotationBytes: l.annBytes,
		Rebuffers:       l.rebuffers,
		StallSeconds:    l.stallSecs,
		Degraded:        l.degraded,
	}
	rep.SavedJoules = rep.BaselineJoules - rep.SessionJoules
	rep.SavedPct = 100 * l.model.Savings(&l.ref, &l.got)
	rep.BacklightSavedPct = 100 * l.model.BacklightSavings(&l.ref, &l.got)
	rep.RadioJoules = l.model.RadioEnergy(&l.got)
	rep.RadioActiveSeconds, rep.RadioIdleSeconds = l.model.RadioSeconds(&l.got)
	rep.QualitySwitches = l.qswitches
	rep.RungSeconds = l.rungSeconds
	if l.frames > 0 {
		rep.AvgLevel = l.levelSum / float64(l.frames)
	}
	if rep.Seconds > 0 {
		rep.AvgWatts = rep.SessionJoules / rep.Seconds
	}
	return rep
}

// String renders the human-readable end-of-session report.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "session: %d frames, %d scenes, %.1fs, avg backlight %.0f/%d, %d switches\n",
		r.Frames, len(r.Scenes), r.Seconds, r.AvgLevel, display.MaxLevel, r.Switches)
	fmt.Fprintf(&b, "energy:  %.1f J modeled (%.2f W avg), %.1f J at full backlight\n",
		r.SessionJoules, r.AvgWatts, r.BaselineJoules)
	fmt.Fprintf(&b, "radio:   %.1f J (%.1fs active, %.1fs idle)\n",
		r.RadioJoules, r.RadioActiveSeconds, r.RadioIdleSeconds)
	fmt.Fprintf(&b, "wire:    %d stream bytes, %d annotation bytes, %d rebuffers (%.1fs stalled)\n",
		r.WireBytes, r.AnnotationBytes, r.Rebuffers, r.StallSeconds)
	if r.RungSeconds != nil {
		fmt.Fprintf(&b, "ladder:  %d quality switches", r.QualitySwitches)
		for _, rung := range sortedRungs(r.RungSeconds) {
			fmt.Fprintf(&b, ", rung %d: %.1fs", rung, r.RungSeconds[rung])
		}
		b.WriteByte('\n')
	}
	if len(r.Degraded) > 0 {
		fmt.Fprintf(&b, "degraded: %s\n", strings.Join(r.Degraded, ", "))
	}
	fmt.Fprintf(&b, "power saved: %.1f%% (backlight alone: %.1f%%)", r.SavedPct, r.BacklightSavedPct)
	return b.String()
}

// SortedRungs returns the rung indexes the session dwelled on in
// ascending order (empty for fixed-quality playback), so callers can
// render per-rung dwell stably without sorting the map themselves.
func (r Report) SortedRungs() []int {
	if r.RungSeconds == nil {
		return nil
	}
	return sortedRungs(r.RungSeconds)
}

// sortedRungs returns the rung indexes of a RungSeconds map in
// ascending order, for stable report rendering.
func sortedRungs(m map[int]float64) []int {
	rungs := make([]int, 0, len(m))
	for r := range m {
		rungs = append(rungs, r)
	}
	sort.Ints(rungs)
	return rungs
}

// Emit logs the report as structured events: one power_report info
// event, plus one power_scene debug event per scene.
func (r Report) Emit(log *obs.Logger) {
	if log == nil {
		return
	}
	log.Info("power_report",
		"frames", r.Frames,
		"scenes", len(r.Scenes),
		"seconds", fmt.Sprintf("%.2f", r.Seconds),
		"avg_level", fmt.Sprintf("%.1f", r.AvgLevel),
		"switches", r.Switches,
		"session_joules", fmt.Sprintf("%.2f", r.SessionJoules),
		"baseline_joules", fmt.Sprintf("%.2f", r.BaselineJoules),
		"saved_pct", fmt.Sprintf("%.1f", r.SavedPct),
		"backlight_saved_pct", fmt.Sprintf("%.1f", r.BacklightSavedPct),
		"radio_joules", fmt.Sprintf("%.2f", r.RadioJoules),
		"quality_switches", r.QualitySwitches,
		"wire_bytes", r.WireBytes,
		"ann_bytes", r.AnnotationBytes,
		"rebuffers", r.Rebuffers,
		"stall_seconds", fmt.Sprintf("%.2f", r.StallSeconds),
		"degraded", strings.Join(r.Degraded, ","),
	)
	if log.Enabled(obs.LevelDebug) {
		for _, sc := range r.Scenes {
			log.Debug("power_scene",
				"scene", sc.Index,
				"level", sc.Level,
				"frames", sc.Frames,
				"seconds", fmt.Sprintf("%.2f", sc.Seconds),
			)
		}
	}
}

// EmitMetrics folds the report into the power_saved_* / session_*
// metric families under the given role label, so a fleet-wide savings
// figure (1 − power_session_joules / power_baseline_joules) is one
// scrape away. Joules accumulate in float gauges because the counter
// type is integral.
func (r Report) EmitMetrics(reg *obs.Registry, role string) {
	if reg == nil {
		return
	}
	lbl := obs.L("role", role)
	reg.Gauge("power_saved_joules", "Modeled energy saved vs full backlight, accumulated across sessions.", lbl).Add(r.SavedJoules)
	reg.Gauge("power_session_joules", "Modeled session energy, accumulated across sessions.", lbl).Add(r.SessionJoules)
	reg.Gauge("power_baseline_joules", "Modeled full-backlight baseline energy, accumulated across sessions.", lbl).Add(r.BaselineJoules)
	reg.Gauge("power_saved_percent_last", "Whole-device energy saved by the most recent session, percent.", lbl).Set(r.SavedPct)
	reg.Counter("session_total", "Completed playback sessions accounted by the power ledger.", lbl).Inc()
	reg.Counter("session_frames_total", "Frames accounted across sessions.", lbl).Add(uint64(r.Frames))
	reg.Counter("session_scenes_total", "Annotated scenes accounted across sessions.", lbl).Add(uint64(len(r.Scenes)))
	reg.Counter("session_switches_total", "Backlight level switches across sessions.", lbl).Add(uint64(r.Switches))
	reg.Counter("session_quality_switches_total", "Quality-ladder rung switches across sessions.", lbl).Add(uint64(r.QualitySwitches))
	reg.Gauge("power_radio_joules", "Modeled wireless-interface energy, accumulated across sessions.", lbl).Add(r.RadioJoules)
	if r.WireBytes > 0 {
		reg.Counter("session_wire_bytes_total", "Stream bytes on the wire across sessions.", lbl).Add(uint64(r.WireBytes))
	}
	reg.Counter("session_rebuffers_total", "Rebuffer/stall events across sessions.", lbl).Add(uint64(r.Rebuffers))
	reg.Gauge("session_stall_seconds_total", "Seconds spent stalled across sessions.", lbl).Add(r.StallSeconds)
	reg.Counter("session_degraded_total", "Side channels dropped across sessions.", lbl).Add(uint64(len(r.Degraded)))
}
