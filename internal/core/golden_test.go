package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/display"
	"repro/internal/scene"
	"repro/internal/video"
)

// playGolden pins the exact results of Play for one library clip, keyed
// by device name, one row per offered quality level. Savings and the
// average level are float64 bit patterns, so any change to how playback
// integrates power — even a reordered sum — shows here, not only outside
// the EXPERIMENTS.md bands.
type playGolden struct {
	backlight, total, measured, avgLevel uint64
	switches, maxStep                    int
}

var playGoldens = map[string][]playGolden{
	"ipaq3650": {
		{0x3fc2108853d13668, 0x3fa7c4e945dd6480, 0x3fa7c4f1e99cc640, 0x406b566666666666, 6, 72},
		{0x3fd506c38f833252, 0x3fbbaa9586efffd8, 0x3fbbaa8ec007f610, 0x40651f92c5f92c60, 6, 110},
		{0x3fd6f3c2c95a9ce6, 0x3fbe3343aa9fa700, 0x3fbe3341d24f5f90, 0x40641c7ae147ae14, 6, 112},
		{0x3fd772b0b7c6f28c, 0x3fbeda46d6dd5b00, 0x3fbeda3474a4e770, 0x4063d88888888889, 6, 116},
		{0x3fd7e1b4a74def3a, 0x3fbf6c597dd256b8, 0x3fbf6c5d5d248920, 0x40639d70a3d70a3d, 6, 117},
	},
	"zaurus5600": {
		{0x3fc3f4481a051a10, 0x3fa92ae0b46beb80, 0x3fa92aac64c293d0, 0x406ae62fc962fc96, 6, 79},
		{0x3fd75f387576c918, 0x3fbd7a677f656410, 0x3fbd7a570f6ada10, 0x4063fc28f5c28f5c, 6, 121},
		{0x3fd97b082ace7880, 0x3fc0119fac4adb78, 0x3fc0119586851a90, 0x4062e0bf258bf259, 6, 125},
		{0x3fd9fcb24ddf7ecc, 0x3fc06364e99d16cc, 0x3fc0635ffa513368, 0x40629b4e81b4e81b, 6, 129},
		{0x3fda7142169fdf84, 0x3fc0ace6cb62843c, 0x3fc0acda4d4a2d2c, 0x40625d5555555555, 6, 130},
	},
	"ipaq5555": {
		{0x3fcd6fed14e7651c, 0x3fb0d23e55168400, 0x3fb0d2332a4f0290, 0x40684aaaaaaaaaab, 6, 114},
		{0x3fdfa553dcd9e4c8, 0x3fc215547e335eac, 0x3fc21551d5e977a4, 0x405f240da740da74, 6, 160},
		{0x3fe11dcf4d98b0ac, 0x3fc38fc858ae8148, 0x3fc38fc7a47fef8c, 0x405c79999999999a, 6, 162},
		{0x3fe1630fc6bb203f, 0x3fc3deed7568255c, 0x3fc3dee6eed92700, 0x405beae147ae147b, 6, 166},
		{0x3fe1a535402c6058, 0x3fc42a860032b7c4, 0x3fc42a7db2bc6090, 0x405b628f5c28f5c3, 6, 167},
	},
}

// TestPlayGolden: Play's savings, average level, switch count and largest
// step match the recorded values bit for bit, for every device at every
// quality level.
func TestPlayGolden(t *testing.T) {
	clip := video.ClipByName("officexp", video.LibraryOptions{W: 40, H: 30, FPS: 10, DurationScale: 1})
	src := ClipSource{clip}
	track, _, err := Annotate(src, scene.DefaultConfig(clip.FPS), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, dev := range display.Devices() {
		want := playGoldens[dev.Name]
		var got []playGolden
		for _, q := range track.Quality {
			rep, err := Play(src, track, PlaybackOptions{Device: dev, Quality: q})
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, playGolden{
				math.Float64bits(rep.BacklightSavings), math.Float64bits(rep.TotalSavings),
				math.Float64bits(rep.MeasuredTotalSavings), math.Float64bits(rep.AvgLevel),
				rep.Switches, rep.MaxStep,
			})
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			var lit string
			for _, g := range got {
				lit += fmt.Sprintf("\t\t{%#x, %#x, %#x, %#x, %d, %d},\n",
					g.backlight, g.total, g.measured, g.avgLevel, g.switches, g.maxStep)
			}
			t.Errorf("%s: Play results drifted; got\n%q: {\n%s},", dev.Name, dev.Name, lit)
		}
	}
}
