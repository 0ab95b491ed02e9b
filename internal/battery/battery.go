// Package battery models the PDA battery whose life the whole technique
// exists to extend (§1: "battery life still remains a major limitation of
// portable devices"). It provides a lithium-ion pack model with a
// Peukert-style rate correction — high discharge rates yield less usable
// capacity — that turns playback power traces into minutes of video per
// charge, the user-visible quantity behind the savings percentages.
package battery

import (
	"fmt"
	"math"

	"repro/internal/power"
)

// Pack describes a battery pack.
type Pack struct {
	// NominalVolts is the pack voltage (Li-ion single cell: 3.7 V).
	NominalVolts float64
	// CapacitymAh is the rated capacity at the rated discharge time.
	CapacitymAh float64
	// PeukertExponent models rate dependence (1.0 = ideal; Li-ion packs
	// sit around 1.03–1.10).
	PeukertExponent float64
	// RatedHours is the discharge time at which CapacitymAh was rated
	// (typically 5 h for small packs).
	RatedHours float64
}

// IPAQ1900 returns the iPAQ h5555's stock pack: a 1250 mAh 3.7 V Li-ion.
func IPAQ1900() *Pack {
	return &Pack{NominalVolts: 3.7, CapacitymAh: 1250, PeukertExponent: 1.05, RatedHours: 5}
}

// Validate reports parameter problems.
func (p *Pack) Validate() error {
	switch {
	case p.NominalVolts <= 0:
		return fmt.Errorf("battery: non-positive voltage")
	case p.CapacitymAh <= 0:
		return fmt.Errorf("battery: non-positive capacity")
	case p.PeukertExponent < 1 || p.PeukertExponent > 1.5:
		return fmt.Errorf("battery: implausible Peukert exponent %v", p.PeukertExponent)
	case p.RatedHours <= 0:
		return fmt.Errorf("battery: non-positive rated hours")
	}
	return nil
}

// ratedAmps is the discharge current at which the capacity was rated.
func (p *Pack) ratedAmps() float64 {
	return p.CapacitymAh / 1000 / p.RatedHours
}

// HoursAt returns the runtime at a constant load of the given watts,
// Peukert-corrected: t = RatedHours · (C/(I·RatedHours))^k.
func (p *Pack) HoursAt(watts float64) float64 {
	if watts <= 0 {
		return math.Inf(1)
	}
	amps := watts / p.NominalVolts
	return p.RatedHours * math.Pow(p.ratedAmps()/amps, p.PeukertExponent)
}

// EffectiveWattHours returns the usable energy at the given constant load.
// It shrinks as the load rises — the reason backlight savings buy more
// than their nominal percentage of runtime.
func (p *Pack) EffectiveWattHours(watts float64) float64 {
	h := p.HoursAt(watts)
	if math.IsInf(h, 1) {
		return p.NominalVolts * p.CapacitymAh / 1000
	}
	return watts * h
}

// PlaybackMinutes returns the minutes of video playable per charge when
// the device draws the trace's average power in a loop.
func (p *Pack) PlaybackMinutes(m *power.Model, t *power.Trace) float64 {
	avg := m.AveragePower(t)
	if avg <= 0 {
		return math.Inf(1)
	}
	return p.HoursAt(avg) * 60
}
