package adaptive

import (
	"fmt"

	"repro/internal/annotation"
	"repro/internal/battery"
	"repro/internal/core"
	"repro/internal/display"
	"repro/internal/power"
)

// The offline Simulate above re-decides quality with perfect knowledge
// of the whole session. Ladder is the same idea promoted to a live
// control loop: fed playout-buffer lead (network health) and battery
// state at each scene boundary, it walks the quality ladder one rung at
// a time with hysteresis, so a session degrades gracefully under a
// throttle instead of stalling, and recovers afterwards without
// flapping. Few, small switches is the design goal: quality-steady
// streaming is where the end-user power savings live (Herglotz & Kaup,
// arXiv 2305.15117).

// LadderConfig tunes the runtime quality-ladder controller. The zero
// value of any field takes the documented default.
type LadderConfig struct {
	// StartRung is the quality index the session was requested at. It is
	// also the ceiling: the ladder never serves better quality than the
	// user asked for.
	StartRung int
	// DownLead is the buffered-seconds threshold under which the ladder
	// walks down one rung (default 1.0s).
	DownLead float64
	// UpLead is the buffered-seconds threshold above which the ladder
	// considers walking back up (default 3.0s).
	UpLead float64
	// MinDwell is how many decisions the ladder holds after any switch
	// before it may switch again (default 2).
	MinDwell int
	// UpHold is how many consecutive above-UpLead decisions are required
	// before a promotion — recovery must prove itself (default 2).
	UpHold int
	// MaxSwitches bounds rung changes per rolling Window of decisions
	// (default 4 per 16), the 2305.15117 switch-rate bound.
	MaxSwitches int
	// Window is the rolling decision window for MaxSwitches (default 16).
	Window int
	// Battery, when set, imposes a floor: the ladder never picks a rung
	// whose projected power exceeds the remaining budget, and an empty
	// gauge pins the bottom rung.
	Battery *battery.Gauge
	// Device is required when Battery is set, for the power projection.
	Device *display.Profile
}

func (c LadderConfig) withDefaults() LadderConfig {
	if c.DownLead == 0 {
		c.DownLead = 1.0
	}
	if c.UpLead == 0 {
		c.UpLead = 3.0
	}
	if c.MinDwell == 0 {
		c.MinDwell = 2
	}
	if c.UpHold == 0 {
		c.UpHold = 2
	}
	if c.MaxSwitches == 0 {
		c.MaxSwitches = 4
	}
	if c.Window == 0 {
		c.Window = 16
	}
	return c
}

// Ladder is the live controller state for one session.
type Ladder struct {
	cfg      LadderConfig
	track    *annotation.Track
	model    *power.Model
	cur      int
	floor    int   // worst rung (highest quality index)
	decided  int   // decisions so far
	dwell    int   // decisions since the last switch
	upRun    int   // consecutive above-UpLead decisions
	log      []int // decision indexes of past switches (rolling-window bound)
	switches int
}

// Inputs is the signal set for one ladder decision, sampled at a scene
// boundary.
type Inputs struct {
	// LeadSeconds is the playout buffer's current lead
	// (netsched.Buffer.LeadSeconds).
	LeadSeconds float64
	// RemainingSeconds is the content time left to play, for the battery
	// budget projection.
	RemainingSeconds float64
}

// NewLadder builds the controller for a session on the given track,
// starting (and capped) at cfg.StartRung.
func NewLadder(track *annotation.Track, cfg LadderConfig) (*Ladder, error) {
	if track == nil || len(track.Quality) == 0 {
		return nil, fmt.Errorf("adaptive: ladder needs an annotated track")
	}
	if cfg.StartRung < 0 || cfg.StartRung >= len(track.Quality) {
		return nil, fmt.Errorf("adaptive: start rung %d outside ladder [0,%d]",
			cfg.StartRung, len(track.Quality)-1)
	}
	if cfg.Battery != nil && cfg.Device == nil {
		return nil, fmt.Errorf("adaptive: battery floor needs a device profile")
	}
	l := &Ladder{
		cfg:   cfg.withDefaults(),
		track: track,
		cur:   cfg.StartRung,
		floor: len(track.Quality) - 1,
	}
	if cfg.Device != nil {
		l.model = power.DefaultModel(cfg.Device)
	}
	// Start fully dwelled so a collapse in the very first scenes can be
	// answered immediately.
	l.dwell = l.cfg.MinDwell
	return l, nil
}

// Config returns the controller's effective configuration, defaults
// applied — callers gate their sampling on the same thresholds.
func (l *Ladder) Config() LadderConfig { return l.cfg }

// Switches returns how many rung changes Decide has made.
func (l *Ladder) Switches() int { return l.switches }

// batteryFloor returns the best (lowest) rung the remaining battery
// budget allows, mirroring BatteryAware.Pick against the live gauge.
func (l *Ladder) batteryFloor(remainingSeconds float64) int {
	g := l.cfg.Battery
	if g == nil {
		return 0
	}
	if g.Empty() {
		return l.floor
	}
	if remainingSeconds <= 0 {
		return 0
	}
	budgetWatts := g.RemainingWh() * 3600 / remainingSeconds * safetyMargin
	for qi := range l.track.Quality {
		if core.EstimateAveragePower(l.track, l.cfg.Device, l.model, qi) <= budgetWatts {
			return qi
		}
	}
	return l.floor
}

// Decide runs one control step and returns the rung for the next
// scene. Network pressure moves one rung at a time; the battery floor
// is a hard constraint and may jump further; hysteresis (dwell, up-hold
// and the rolling switch-rate bound) applies to network moves only —
// running the battery flat is worse than one extra switch.
func (l *Ladder) Decide(in Inputs) int {
	l.decided++
	l.dwell++

	desired := l.cur
	switch {
	case in.LeadSeconds < l.cfg.DownLead:
		l.upRun = 0
		if desired < l.floor {
			desired++
		}
	case in.LeadSeconds > l.cfg.UpLead:
		l.upRun++
		if l.upRun >= l.cfg.UpHold && desired > l.cfg.StartRung {
			desired--
		}
	default:
		l.upRun = 0
	}

	if desired != l.cur && !l.maySwitch() {
		desired = l.cur
	}

	// Battery floor is not subject to hysteresis: it only ever forces
	// quality down, and ignoring it costs the rest of the session.
	if bf := l.batteryFloor(in.RemainingSeconds); desired < bf {
		desired = bf
	}

	if desired != l.cur {
		l.cur = desired
		l.switches++
		l.dwell = 0
		l.upRun = 0
		l.log = append(l.log, l.decided)
	}
	return l.cur
}

// maySwitch applies the switch-rate hysteresis: minimum dwell since the
// last switch, and at most MaxSwitches inside the rolling Window.
func (l *Ladder) maySwitch() bool {
	if l.dwell < l.cfg.MinDwell {
		return false
	}
	recent := 0
	for i := len(l.log) - 1; i >= 0; i-- {
		if l.decided-l.log[i] >= l.cfg.Window {
			break
		}
		recent++
	}
	return recent < l.cfg.MaxSwitches
}
