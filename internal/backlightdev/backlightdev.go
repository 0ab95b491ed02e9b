// Package backlightdev models the hardware backlight interface the
// paper's player drives through the Familiar Linux backlight driver: the
// kernel exposes a small number of discrete brightness steps, not the
// 0..255 software scale. A requested level is rounded up to the next step,
// so a scene is never under-lit, and the hardware-steps ablation measures
// the power that rounding costs against ideal continuous control.
package backlightdev

import (
	"fmt"

	"repro/internal/display"
)

// Device is a simulated backlight driver.
type Device struct {
	// Steps is the number of discrete hardware levels (>= 2); requested
	// 0..255 levels are rounded UP to the next step so a scene is never
	// under-lit by quantisation.
	Steps int
}

// New returns a driver with the given hardware resolution.
func New(steps int) (*Device, error) {
	if steps < 2 || steps > 256 {
		return nil, fmt.Errorf("backlightdev: %d steps outside [2,256]", steps)
	}
	return &Device{Steps: steps}, nil
}

// Quantize returns the hardware level (0..255 scale) the driver would use
// for a requested level: the smallest representable step at or above it.
func (d *Device) Quantize(level int) int {
	if level < 0 {
		level = 0
	}
	if level > display.MaxLevel {
		level = display.MaxLevel
	}
	stepSize := float64(display.MaxLevel) / float64(d.Steps-1)
	idx := int(float64(level) / stepSize)
	if float64(idx)*stepSize < float64(level) {
		idx++
	}
	if idx > d.Steps-1 {
		idx = d.Steps - 1
	}
	return int(float64(idx)*stepSize + 0.5)
}

// QuantizationLoss measures the backlight power wasted by hardware
// quantisation for a level schedule on a device profile: requested levels
// are rounded up to hardware steps, so quantised playback draws at least
// as much power as the continuous schedule.
func QuantizationLoss(dev *display.Profile, d *Device, levels []int, fps int) (continuousJ, quantizedJ float64) {
	if fps <= 0 {
		return 0, 0
	}
	dt := 1 / float64(fps)
	for _, l := range levels {
		continuousJ += dev.BacklightPower(l) * dt
		quantizedJ += dev.BacklightPower(d.Quantize(l)) * dt
	}
	return continuousJ, quantizedJ
}
