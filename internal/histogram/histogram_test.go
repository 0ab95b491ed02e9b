package histogram

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/frame"
	"repro/internal/pixel"
)

func uniform(levels ...uint8) *H {
	return FromLuma(levels)
}

func TestFromFrameCountsAllPixels(t *testing.T) {
	f := frame.Solid(8, 4, pixel.Gray(100))
	h := FromFrame(f)
	if h.Total != 32 {
		t.Fatalf("Total = %d, want 32", h.Total)
	}
	if h.Count[100] != 32 {
		t.Fatalf("Count[100] = %d, want 32", h.Count[100])
	}
}

func TestAverage(t *testing.T) {
	h := uniform(0, 100, 200)
	if got := h.Average(); math.Abs(got-100) > 1e-9 {
		t.Errorf("Average = %v, want 100", got)
	}
	if got := (&H{}).Average(); got != 0 {
		t.Errorf("empty Average = %v, want 0", got)
	}
}

func TestMinMaxDynamicRange(t *testing.T) {
	h := uniform(10, 20, 250)
	if h.Min() != 10 || h.Max() != 250 || h.DynamicRange() != 240 {
		t.Errorf("min/max/range = %d/%d/%d", h.Min(), h.Max(), h.DynamicRange())
	}
	empty := &H{}
	if empty.DynamicRange() != 0 {
		t.Errorf("empty DynamicRange = %d", empty.DynamicRange())
	}
}

func TestClipLevelLossless(t *testing.T) {
	h := uniform(10, 20, 200)
	if got := h.ClipLevel(0); got != 200 {
		t.Errorf("ClipLevel(0) = %d, want max 200", got)
	}
}

func TestClipLevelBudget(t *testing.T) {
	// 100 pixels: 90 at 50, 10 at 255. A 10% budget may clip all ten
	// bright pixels; an 5% budget may not.
	luma := make([]uint8, 0, 100)
	for i := 0; i < 90; i++ {
		luma = append(luma, 50)
	}
	for i := 0; i < 10; i++ {
		luma = append(luma, 255)
	}
	h := FromLuma(luma)
	if got := h.ClipLevel(0.10); got != 50 {
		t.Errorf("ClipLevel(0.10) = %d, want 50", got)
	}
	if got := h.ClipLevel(0.05); got != 255 {
		t.Errorf("ClipLevel(0.05) = %d, want 255", got)
	}
}

func TestClipLevelExtremes(t *testing.T) {
	h := uniform(10, 200)
	if got := h.ClipLevel(1); got != 10 {
		t.Errorf("ClipLevel(1) = %d, want min", got)
	}
	if got := (&H{}).ClipLevel(0.5); got != 0 {
		t.Errorf("empty ClipLevel = %d, want 0", got)
	}
}

// TestClipLevelBoundaries audits ClipLevel the same way: exact-budget
// products that float arithmetic lands just under the true integer
// (0.29*100 = 28.999999999999996 truncated to 28, clipping one pixel
// fewer than the budget allows), plus the q=0/q=1/empty/all-zero edges.
func TestClipLevelBoundaries(t *testing.T) {
	// 100 pixels: 71 dark, 29 at full scale. A 29% budget must clip all
	// 29 bright pixels.
	luma := make([]uint8, 0, 100)
	for i := 0; i < 71; i++ {
		luma = append(luma, 40)
	}
	for i := 0; i < 29; i++ {
		luma = append(luma, 255)
	}
	skewed := FromLuma(luma)
	cases := []struct {
		name   string
		h      *H
		budget float64
		want   int
	}{
		{"empty", &H{}, 0.5, 0},
		{"all-zero lossless", uniform(0, 0), 0, 0},
		{"all-zero full budget", uniform(0, 0), 1, 0},
		{"budget 0 is max", uniform(3, 250), 0, 250},
		{"budget 1 is min", uniform(3, 250), 1, 3},
		{"negative budget is max", uniform(3, 250), -0.5, 250},
		{"float-rounding 0.29*100", skewed, 0.29, 40},
		{"just under the bright mass", skewed, 0.28, 255},
	}
	for _, c := range cases {
		if got := c.h.ClipLevel(c.budget); got != c.want {
			t.Errorf("%s: ClipLevel(%v) = %d, want %d", c.name, c.budget, got, c.want)
		}
	}
}

func TestClippedFraction(t *testing.T) {
	h := uniform(10, 100, 200, 250)
	if got := h.ClippedFraction(150); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("ClippedFraction(150) = %v, want 0.5", got)
	}
	if got := h.ClippedFraction(255); got != 0 {
		t.Errorf("ClippedFraction(255) = %v, want 0", got)
	}
	if got := h.ClippedFraction(10); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("ClippedFraction(10) = %v, want 0.75", got)
	}
	if got := h.ClippedFraction(0); got != 1 {
		t.Errorf("ClippedFraction(0) = %v, want 1", got)
	}
}

func TestAddMerges(t *testing.T) {
	a := uniform(10, 10)
	b := uniform(20)
	a.Add(b)
	if a.Total != 3 || a.Count[10] != 2 || a.Count[20] != 1 {
		t.Errorf("Add result = %+v", a)
	}
}

func TestIntersectionIdentical(t *testing.T) {
	h := uniform(1, 2, 3, 200)
	if got := Intersection(h, h); math.Abs(got-1) > 1e-12 {
		t.Errorf("self Intersection = %v, want 1", got)
	}
}

func TestIntersectionDisjoint(t *testing.T) {
	a, b := uniform(10), uniform(200)
	if got := Intersection(a, b); got != 0 {
		t.Errorf("disjoint Intersection = %v, want 0", got)
	}
}

func TestEMDShift(t *testing.T) {
	// Shifting a delta distribution by k levels moves k units of earth.
	a, b := uniform(100), uniform(110)
	if got := EMD(a, b); math.Abs(got-10) > 1e-9 {
		t.Errorf("EMD = %v, want 10", got)
	}
	if got := EMD(a, a); got != 0 {
		t.Errorf("self EMD = %v, want 0", got)
	}
}

func TestMeanShift(t *testing.T) {
	a, b := uniform(100), uniform(90)
	if got := MeanShift(a, b); math.Abs(got+10) > 1e-9 {
		t.Errorf("MeanShift = %v, want -10", got)
	}
}

func TestStringFormat(t *testing.T) {
	h := uniform(10, 20)
	want := "hist{n=2 avg=15.0 range=[10,20]}"
	if got := h.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

// Property: the clipped fraction at the budget-derived clip level never
// exceeds the budget — the core guarantee the quality levels rely on.
func TestClipLevelRespectsBudgetProperty(t *testing.T) {
	f := func(samples []uint8, budgetRaw uint8) bool {
		if len(samples) == 0 {
			return true
		}
		h := FromLuma(samples)
		budget := float64(budgetRaw) / 255 * 0.25 // 0..25%
		level := h.ClipLevel(budget)
		return h.ClippedFraction(level) <= budget+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ClipLevel is monotone non-increasing in the budget.
func TestClipLevelMonotoneProperty(t *testing.T) {
	f := func(samples []uint8, b1, b2 uint8) bool {
		if len(samples) == 0 {
			return true
		}
		h := FromLuma(samples)
		lo, hi := float64(b1)/255, float64(b2)/255
		if lo > hi {
			lo, hi = hi, lo
		}
		return h.ClipLevel(lo) >= h.ClipLevel(hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: EMD is a metric on these distributions — symmetric, zero on
// self, triangle inequality.
func TestEMDMetricProperty(t *testing.T) {
	f := func(a, b, c []uint8) bool {
		if len(a) == 0 || len(b) == 0 || len(c) == 0 {
			return true
		}
		ha, hb, hc := FromLuma(a), FromLuma(b), FromLuma(c)
		dab, dba := EMD(ha, hb), EMD(hb, ha)
		if math.Abs(dab-dba) > 1e-9 {
			return false
		}
		return EMD(ha, hc) <= dab+EMD(hb, hc)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Intersection is in [0,1] and symmetric.
func TestIntersectionRangeProperty(t *testing.T) {
	f := func(a, b []uint8) bool {
		if len(a) == 0 || len(b) == 0 {
			return true
		}
		ha, hb := FromLuma(a), FromLuma(b)
		s := Intersection(ha, hb)
		return s >= 0 && s <= 1+1e-12 && math.Abs(s-Intersection(hb, ha)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
