package netsched

import (
	"math"
	"testing"
	"testing/quick"
)

// stream is a 60s clip at a typical trailer bitrate (~500 kbit/s).
func stream() []Scene {
	return []Scene{
		{Bytes: 250_000, Seconds: 4},
		{Bytes: 180_000, Seconds: 3},
		{Bytes: 400_000, Seconds: 6},
		{Bytes: 300_000, Seconds: 5},
		{Bytes: 600_000, Seconds: 10},
		{Bytes: 2_000_000, Seconds: 32},
	}
}

func TestDefaultWNICValidates(t *testing.T) {
	if err := DefaultWNIC().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadWNIC(t *testing.T) {
	mutations := []func(*WNIC){
		func(w *WNIC) { w.RxWatts = 0 },
		func(w *WNIC) { w.IdleWatts = 0 },
		func(w *WNIC) { w.SleepWatts = -1 },
		func(w *WNIC) { w.SleepWatts = w.IdleWatts },
		func(w *WNIC) { w.IdleWatts = w.RxWatts + 1 },
		func(w *WNIC) { w.Mbps = 0 },
		func(w *WNIC) { w.WakeSeconds = -1 },
	}
	for i, mutate := range mutations {
		w := DefaultWNIC()
		mutate(w)
		if err := w.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestSceneAnnotationRoundTrip(t *testing.T) {
	scenes := stream()
	got, err := DecodeScenes(EncodeScenes(scenes))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(scenes) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range scenes {
		if got[i].Bytes != scenes[i].Bytes {
			t.Errorf("scene %d bytes = %d, want %d", i, got[i].Bytes, scenes[i].Bytes)
		}
		if math.Abs(got[i].Seconds-scenes[i].Seconds) > 0.001 {
			t.Errorf("scene %d seconds = %v, want %v", i, got[i].Seconds, scenes[i].Seconds)
		}
	}
}

func TestDecodeScenesRejectsGarbage(t *testing.T) {
	for i, data := range [][]byte{nil, {1, 2}, {0, 0, 0, 3, 5}, {255, 255, 255, 255}} {
		if _, err := DecodeScenes(data); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestDecodeScenesNeverPanicsProperty(t *testing.T) {
	f := func(data []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		DecodeScenes(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAlwaysOnEnergy(t *testing.T) {
	w := DefaultWNIC()
	scenes := []Scene{{Bytes: 625_000, Seconds: 10}} // exactly 1s of rx at 5Mbps
	res := w.AlwaysOn(scenes)
	want := w.RxWatts*1 + w.IdleWatts*9
	if math.Abs(res.EnergyJoules-want) > 1e-9 {
		t.Errorf("always-on energy = %v, want %v", res.EnergyJoules, want)
	}
}

func TestAnnotatedBeatsAlwaysOnAndPSM(t *testing.T) {
	w := DefaultWNIC()
	results, err := w.Compare(stream(), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Result{}
	for _, r := range results {
		byName[r.Policy] = r
	}
	on, psm, ann := byName["always-on"], byName["psm"], byName["annotated"]
	if ann.EnergyJoules >= psm.EnergyJoules {
		t.Errorf("annotated %v J not below PSM %v J", ann.EnergyJoules, psm.EnergyJoules)
	}
	if psm.EnergyJoules >= on.EnergyJoules {
		t.Errorf("PSM %v J not below always-on %v J", psm.EnergyJoules, on.EnergyJoules)
	}
	if ann.Savings < 0.5 {
		t.Errorf("annotated savings = %v, want large at trailer bitrates", ann.Savings)
	}
	if on.Savings != 0 {
		t.Errorf("always-on savings = %v", on.Savings)
	}
	// Annotated wakes once per scene; PSM once per beacon.
	if ann.Wakeups != len(stream()) {
		t.Errorf("annotated wakeups = %d, want %d", ann.Wakeups, len(stream()))
	}
	if psm.Wakeups <= ann.Wakeups {
		t.Errorf("PSM wakeups %d not above annotated %d", psm.Wakeups, ann.Wakeups)
	}
}

func TestAnnotatedSleepsMostOfTheTime(t *testing.T) {
	w := DefaultWNIC()
	res := w.Annotated(stream())
	if res.SleepFraction < 0.8 {
		t.Errorf("sleep fraction = %v; trailer bitrates should allow deep sleep", res.SleepFraction)
	}
}

func TestAnnotatedDenseSceneStaysAwake(t *testing.T) {
	w := DefaultWNIC()
	// Scene needs more rx time than its duration: no sleep possible.
	scenes := []Scene{{Bytes: 10_000_000, Seconds: 1}}
	res := w.Annotated(scenes)
	if res.SleepFraction != 0 {
		t.Errorf("dense scene slept %v", res.SleepFraction)
	}
	if res.EnergyJoules <= 0 {
		t.Error("no energy accounted")
	}
}

func TestPSMValidation(t *testing.T) {
	w := DefaultWNIC()
	if _, err := w.PSM(stream(), 0); err == nil {
		t.Error("zero beacon accepted")
	}
	bad := DefaultWNIC()
	bad.Mbps = 0
	if _, err := bad.Compare(stream(), 0.1); err == nil {
		t.Error("invalid WNIC accepted by Compare")
	}
}

func TestPSMBeaconGranularityTradeoff(t *testing.T) {
	w := DefaultWNIC()
	coarse, err := w.PSM(stream(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	fine, err := w.PSM(stream(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// Finer beacons wake more often and pay more wake overhead.
	if fine.Wakeups <= coarse.Wakeups {
		t.Errorf("fine beacons woke %d times, coarse %d", fine.Wakeups, coarse.Wakeups)
	}
}

// Property: energies are non-negative and annotated never exceeds
// always-on for any feasible stream.
func TestPolicyOrderingProperty(t *testing.T) {
	w := DefaultWNIC()
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 12 {
			raw = raw[:12]
		}
		scenes := make([]Scene, len(raw))
		for i, r := range raw {
			scenes[i] = Scene{Bytes: int(r) * 100, Seconds: 1 + float64(r%7)}
		}
		results, err := w.Compare(scenes, 0.1)
		if err != nil {
			return false
		}
		for _, res := range results {
			if res.EnergyJoules < 0 {
				return false
			}
		}
		return results[2].EnergyJoules <= results[0].EnergyJoules+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
