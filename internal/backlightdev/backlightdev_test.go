package backlightdev

import (
	"testing"

	"repro/internal/display"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(1); err == nil {
		t.Error("1 step accepted")
	}
	if _, err := New(300); err == nil {
		t.Error("300 steps accepted")
	}
	if _, err := New(16); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeRoundsUp(t *testing.T) {
	d, _ := New(16) // steps at 0, 17, 34, ...
	cases := []struct{ in, wantMin int }{
		{0, 0}, {1, 1}, {17, 17}, {18, 18}, {255, 255}, {300, 255}, {-5, 0},
	}
	for _, c := range cases {
		got := d.Quantize(c.in)
		if got < c.wantMin && c.in >= 0 && c.in <= 255 {
			t.Errorf("Quantize(%d) = %d, under-lights", c.in, got)
		}
	}
	// Never under the request, never more than one step above.
	stepSize := 255.0 / 15
	for level := 0; level <= 255; level++ {
		q := d.Quantize(level)
		if q < level {
			t.Fatalf("Quantize(%d) = %d under-lights", level, q)
		}
		if float64(q-level) > stepSize+1 {
			t.Fatalf("Quantize(%d) = %d overshoots a full step", level, q)
		}
	}
}

func TestQuantize256StepsIsIdentity(t *testing.T) {
	d, _ := New(256)
	for level := 0; level <= 255; level++ {
		if got := d.Quantize(level); got != level {
			t.Fatalf("Quantize(%d) = %d with 256 steps", level, got)
		}
	}
}

func TestQuantizationLoss(t *testing.T) {
	dev := display.IPAQ5555()
	coarse, _ := New(4)
	fine, _ := New(64)
	levels := []int{40, 80, 120, 160, 200}
	cont, qCoarse := QuantizationLoss(dev, coarse, levels, 10)
	_, qFine := QuantizationLoss(dev, fine, levels, 10)
	if qCoarse < cont || qFine < cont {
		t.Error("quantised playback cheaper than continuous; rounding must be upward")
	}
	if qCoarse <= qFine {
		t.Errorf("4-step device (%v J) not costlier than 64-step (%v J)", qCoarse, qFine)
	}
	if c, q := QuantizationLoss(dev, fine, levels, 0); c != 0 || q != 0 {
		t.Error("fps=0 not treated as empty")
	}
}
