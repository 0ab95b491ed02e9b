package battery

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/display"
	"repro/internal/power"
)

func pack() *Pack { return IPAQ1900() }

func trace(level int) *power.Trace {
	var t power.Trace
	t.Append(10, power.State{Decoding: true, NetworkActive: true, BacklightLevel: level})
	return &t
}

func TestPackValidates(t *testing.T) {
	if err := pack().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Pack){
		func(p *Pack) { p.NominalVolts = 0 },
		func(p *Pack) { p.CapacitymAh = -1 },
		func(p *Pack) { p.PeukertExponent = 0.9 },
		func(p *Pack) { p.PeukertExponent = 2 },
		func(p *Pack) { p.RatedHours = 0 },
	}
	for i, mutate := range bad {
		p := pack()
		mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestHoursAtRatedLoad(t *testing.T) {
	p := pack()
	// At exactly the rated current the Peukert correction vanishes.
	ratedWatts := p.NominalVolts * p.CapacitymAh / 1000 / p.RatedHours
	if got := p.HoursAt(ratedWatts); math.Abs(got-p.RatedHours) > 1e-9 {
		t.Errorf("HoursAt(rated) = %v, want %v", got, p.RatedHours)
	}
	if got := p.HoursAt(0); !math.IsInf(got, 1) {
		t.Errorf("HoursAt(0) = %v", got)
	}
}

func TestPeukertPenalisesHighLoads(t *testing.T) {
	p := pack()
	lo := p.EffectiveWattHours(0.5)
	hi := p.EffectiveWattHours(4.0)
	if hi >= lo {
		t.Errorf("high-rate capacity %v not below low-rate %v", hi, lo)
	}
	ideal := *p
	ideal.PeukertExponent = 1
	// With k=1 the effective capacity is rate independent.
	a := ideal.EffectiveWattHours(0.5)
	b := ideal.EffectiveWattHours(4.0)
	if math.Abs(a-b) > 1e-9 {
		t.Errorf("ideal pack rate-dependent: %v vs %v", a, b)
	}
}

func TestPlaybackMinutesImproveWithDimming(t *testing.T) {
	p := pack()
	m := power.DefaultModel(display.IPAQ5555())
	full := p.PlaybackMinutes(m, trace(255))
	dim := p.PlaybackMinutes(m, trace(60))
	if dim <= full {
		t.Errorf("dimmed playback %v min not above full %v min", dim, full)
	}
	// The Peukert effect makes the runtime gain exceed the raw power
	// saving fraction.
	powerGain := m.AveragePower(trace(255))/m.AveragePower(trace(60)) - 1
	runtimeGain := dim/full - 1
	if runtimeGain <= powerGain {
		t.Errorf("runtime gain %v not above power gain %v (Peukert)", runtimeGain, powerGain)
	}
}

// Property: runtime decreases monotonically with load.
func TestHoursMonotoneProperty(t *testing.T) {
	p := pack()
	f := func(a, b uint8) bool {
		wa := 0.1 + float64(a)/64
		wb := 0.1 + float64(b)/64
		if wa > wb {
			wa, wb = wb, wa
		}
		return p.HoursAt(wa) >= p.HoursAt(wb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
