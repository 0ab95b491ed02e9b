package core_test

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/display"
	"repro/internal/scene"
	"repro/internal/video"
)

// The full pipeline in six lines: synthesise a clip, annotate it offline,
// and simulate annotated playback on a characterised device.
func Example() {
	clip := video.MustNew("demo", 40, 30, 10, 11, []video.SceneSpec{
		{Frames: 15, BaseLuma: 0.15, LumaSpread: 0.12, MaxLuma: 0.78, HighlightFrac: 0.01},
		{Frames: 15, BaseLuma: 0.22, LumaSpread: 0.14, MaxLuma: 0.95, HighlightFrac: 0.008},
	})
	src := core.ClipSource{Clip: clip}
	track, scenes, err := core.Annotate(src, scene.DefaultConfig(clip.FPS), nil)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := core.Play(src, track, core.PlaybackOptions{
		Device: display.IPAQ5555(), Quality: 0.10,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d scenes, %dB of annotations\n", len(scenes), track.Size())
	fmt.Printf("backlight saved: %.0f%%\n", rep.BacklightSavings*100)
	// Output:
	// 2 scenes, 58B of annotations
	// backlight saved: 83%
}
