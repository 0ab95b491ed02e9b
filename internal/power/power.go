// Package power models the measurement side of the paper's evaluation
// (§5.1): an iPAQ 5555 with its batteries removed, powered through a sense
// resistor, sampled by a PCI DAQ board at 20 k samples/s while a video
// player runs. It provides
//
//   - a whole-device component power model (CPU, network, LCD panel,
//     backlight, base) in which the backlight at full drive accounts for
//     roughly 25–30% of playback power, matching §4;
//   - an analytic energy integrator used for the simulation results
//     (Figure 9 uses backlight power only);
//   - a simulated DAQ that samples the power trace with sensor noise and
//     ADC quantisation, used for the "measured" results (Figure 10).
package power

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/display"
)

// Model is the whole-device power model during video playback.
type Model struct {
	Device *display.Profile
	// CPUDecodeWatts is CPU power while decoding video.
	CPUDecodeWatts float64
	// CPUIdleWatts is CPU power when idle (between frames).
	CPUIdleWatts float64
	// NetworkWatts is the WLAN receive power while streaming.
	NetworkWatts float64
	// NetworkIdleWatts is the WLAN power when the radio is associated
	// but idle (power-save polling between receive bursts). The
	// active/idle split is what makes radio-sleep scheduling visible in
	// the savings numbers: the wireless interface is a dominant
	// component of handheld power, and most of its draw disappears only
	// when the radio actually idles (arXiv 1407.7667).
	NetworkIdleWatts float64
	// BaseWatts covers memory, audio and the rest of the board.
	BaseWatts float64
}

// DefaultModel returns the playback power model for the given device,
// calibrated so the backlight share of total power sits in the 25–30%
// band the paper reports for full drive.
func DefaultModel(dev *display.Profile) *Model {
	return &Model{
		Device:           dev,
		CPUDecodeWatts:   0.90, // 400 MHz XScale decoding MPEG
		CPUIdleWatts:     0.25,
		NetworkWatts:     0.30,
		NetworkIdleWatts: 0.05, // PSM poll/beacon draw, radio otherwise asleep
		BaseWatts:        0.12,
	}
}

// State is the device activity at an instant.
type State struct {
	Decoding       bool
	NetworkActive  bool
	BacklightLevel int
}

// Instant returns the total device power in the given state, in watts.
func (m *Model) Instant(s State) float64 {
	p := m.BaseWatts + m.Device.PanelWatts + m.Device.BacklightPower(s.BacklightLevel)
	if s.Decoding {
		p += m.CPUDecodeWatts
	} else {
		p += m.CPUIdleWatts
	}
	if s.NetworkActive {
		p += m.NetworkWatts
	} else {
		p += m.NetworkIdleWatts
	}
	return p
}

// RadioEnergy integrates only the wireless-interface component of the
// trace, in joules: active receive power while NetworkActive, idle
// (power-save) draw otherwise. This is the quantity chunk batching and
// burst scheduling shrink — separating it from the whole-device total
// makes radio-sleep wins visible in the session report.
func (m *Model) RadioEnergy(t *Trace) float64 {
	var e float64
	for _, seg := range t.Segments {
		if seg.State.NetworkActive {
			e += m.NetworkWatts * seg.Seconds
		} else {
			e += m.NetworkIdleWatts * seg.Seconds
		}
	}
	return e
}

// RadioSeconds splits the trace's duration into radio-active and
// radio-idle seconds.
func (m *Model) RadioSeconds(t *Trace) (active, idle float64) {
	for _, seg := range t.Segments {
		if seg.State.NetworkActive {
			active += seg.Seconds
		} else {
			idle += seg.Seconds
		}
	}
	return active, idle
}

// BacklightShare returns the fraction of total playback power drawn by the
// backlight at full drive — §4's "about 25-30% of total power consumption".
func (m *Model) BacklightShare() float64 {
	s := State{Decoding: true, NetworkActive: true, BacklightLevel: display.MaxLevel}
	return m.Device.BacklightPower(display.MaxLevel) / m.Instant(s)
}

// Segment is a stretch of playback at constant state.
type Segment struct {
	Seconds float64
	State   State
}

// Trace is a recorded playback power profile.
type Trace struct {
	Segments []Segment
}

// Append adds a segment; zero-length segments are dropped.
func (t *Trace) Append(seconds float64, s State) {
	if seconds <= 0 {
		return
	}
	if n := len(t.Segments); n > 0 && t.Segments[n-1].State == s {
		t.Segments[n-1].Seconds += seconds
		return
	}
	t.Segments = append(t.Segments, Segment{Seconds: seconds, State: s})
}

// Duration returns the total trace duration in seconds.
func (t *Trace) Duration() float64 {
	var d float64
	for _, s := range t.Segments {
		d += s.Seconds
	}
	return d
}

// Energy integrates the trace analytically, returning joules.
func (m *Model) Energy(t *Trace) float64 {
	var e float64
	for _, seg := range t.Segments {
		e += m.Instant(seg.State) * seg.Seconds
	}
	return e
}

// BacklightEnergy integrates only the backlight component, in joules —
// the quantity behind the simulated Figure 9 results.
func (m *Model) BacklightEnergy(t *Trace) float64 {
	var e float64
	for _, seg := range t.Segments {
		e += m.Device.BacklightPower(seg.State.BacklightLevel) * seg.Seconds
	}
	return e
}

// AveragePower returns the mean power over the trace, in watts.
func (m *Model) AveragePower(t *Trace) float64 {
	d := t.Duration()
	if d == 0 {
		return 0
	}
	return m.Energy(t) / d
}

// Savings returns the fractional energy saved by trace got relative to
// reference ref, both integrated under model m.
func (m *Model) Savings(ref, got *Trace) float64 {
	er := m.Energy(ref)
	if er == 0 {
		return 0
	}
	return 1 - m.Energy(got)/er
}

// BacklightSavings is Savings restricted to the backlight component.
func (m *Model) BacklightSavings(ref, got *Trace) float64 {
	er := m.BacklightEnergy(ref)
	if er == 0 {
		return 0
	}
	return 1 - m.BacklightEnergy(got)/er
}

// DAQ simulates the paper's data-acquisition setup: supply voltage, shunt
// resistor, sample rate, ADC resolution and sensor noise.
type DAQ struct {
	// SampleRate in samples per second (paper: 20k).
	SampleRate float64
	// SupplyVolts is the bench supply voltage replacing the battery.
	SupplyVolts float64
	// ShuntOhms is the sense resistor across which current is measured.
	ShuntOhms float64
	// FullScaleVolts is the ADC input range for the shunt drop.
	FullScaleVolts float64
	// Bits is the ADC resolution.
	Bits int
	// NoiseSigmaVolts is additive Gaussian noise on the shunt voltage.
	NoiseSigmaVolts float64
	// Seed makes a measurement run deterministic.
	Seed int64
}

// DefaultDAQ mirrors the paper's bench: 20 kS/s on a 5 V supply with a
// 0.1 Ω shunt into a 12-bit ADC.
func DefaultDAQ() *DAQ {
	return &DAQ{
		SampleRate:      20000,
		SupplyVolts:     5.0,
		ShuntOhms:       0.1,
		FullScaleVolts:  0.25,
		Bits:            12,
		NoiseSigmaVolts: 0.0004,
		Seed:            1,
	}
}

// Measurement is the result of a DAQ run over a trace.
type Measurement struct {
	EnergyJoules float64
	AvgWatts     float64
	Samples      int
}

// Measure samples the trace and integrates the measured power. The trace
// is walked segment by segment; each ADC sample reads the (noisy,
// quantised) shunt voltage, converts to current and multiplies by the
// supply voltage, exactly as the bench setup does.
func (d *DAQ) Measure(m *Model, t *Trace) (Measurement, error) {
	if d.SampleRate <= 0 || d.SupplyVolts <= 0 || d.ShuntOhms <= 0 || d.Bits <= 0 || d.Bits > 24 {
		return Measurement{}, fmt.Errorf("power: invalid DAQ configuration %+v", *d)
	}
	rng := rand.New(rand.NewSource(d.Seed))
	dt := 1 / d.SampleRate
	lsb := d.FullScaleVolts / float64(int(1)<<d.Bits)
	var energy float64
	samples := 0
	for _, seg := range t.Segments {
		truePower := m.Instant(seg.State)
		current := truePower / d.SupplyVolts
		vShunt := current * d.ShuntOhms
		n := int(math.Round(seg.Seconds * d.SampleRate))
		for i := 0; i < n; i++ {
			v := vShunt + rng.NormFloat64()*d.NoiseSigmaVolts
			if v < 0 {
				v = 0
			}
			if v > d.FullScaleVolts {
				v = d.FullScaleVolts
			}
			v = math.Round(v/lsb) * lsb
			p := v / d.ShuntOhms * d.SupplyVolts
			energy += p * dt
			samples++
		}
	}
	meas := Measurement{EnergyJoules: energy, Samples: samples}
	if dur := float64(samples) * dt; dur > 0 {
		meas.AvgWatts = energy / dur
	}
	return meas, nil
}

// MeasuredSavings runs the DAQ over a reference and an optimised trace and
// returns the fractional whole-device energy savings — the Figure 10
// quantity.
func (d *DAQ) MeasuredSavings(m *Model, ref, got *Trace) (float64, error) {
	mr, err := d.Measure(m, ref)
	if err != nil {
		return 0, err
	}
	mg, err := d.Measure(m, got)
	if err != nil {
		return 0, err
	}
	if mr.EnergyJoules == 0 {
		return 0, nil
	}
	return 1 - mg.EnergyJoules/mr.EnergyJoules, nil
}

// BatteryLifeHours estimates runtime on a battery of the given watt-hour
// capacity at the trace's average power.
func (m *Model) BatteryLifeHours(t *Trace, wattHours float64) float64 {
	p := m.AveragePower(t)
	if p <= 0 {
		return math.Inf(1)
	}
	return wattHours / p
}
