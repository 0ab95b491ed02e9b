// Command player plays an annotated container stream (.avs) the way the
// paper's modified Berkeley MPEG player does on the iPAQ: it decodes every
// frame, follows the annotation track to set the backlight per scene at
// the requested quality level, and reports the power accounting of the run
// (both the analytic integration and the simulated DAQ measurement).
//
// Usage:
//
//	player -i rotk.avs [-device ipaq5555] [-quality 0.10] [-compensate]
//	       [-battery 7.4] [-debug-addr :7402] [-log-level info]
//
// The file plays through stream.Client.PlayContainer, a fixed streaming
// session's playback loop without the WNIC, so rung, levels and report
// match that session's; compensation and -dump-ppm run in its OnFrame.
// With -debug-addr the player serves the client's telemetry over HTTP
// while playing (Prometheus /metrics, /healthz, /debug/pprof). The run
// ends with the ledger's report ("power saved: NN.N%"), which integrates
// the same states as the offline model and so agrees with the analytic
// figures exactly. -log-level selects the threshold for the structured
// key=value events (power_report at info, per-scene power_scene at debug).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/annotation"
	"repro/internal/compensate"
	"repro/internal/container"
	"repro/internal/display"
	"repro/internal/frame"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/stream"
)

func main() {
	in := flag.String("i", "", "input .avs path")
	deviceName := flag.String("device", "ipaq5555", "device profile")
	quality := flag.Float64("quality", 0.10, "accepted clipping budget (0..0.20)")
	doCompensate := flag.Bool("compensate", true, "apply client-side compensation")
	methodName := flag.String("method", "contrast", "compensation method (contrast, tonemap)")
	battery := flag.Float64("battery", 7.4, "battery capacity in watt-hours")
	traceOut := flag.String("trace", "", "write the power trace as CSV to this path")
	dumpDir := flag.String("dump-ppm", "", "dump decoded frames as PPM files into this directory")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /healthz and /debug/pprof on this address")
	logLevel := flag.String("log-level", "info", "structured event threshold (debug, info, warn, error)")
	flag.Parse()

	lvl, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "player:", err)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, lvl)

	var reg *obs.Registry
	if *debugAddr != "" {
		reg = obs.NewRegistry()
		ds, err := obs.ServeDebug(*debugAddr, reg)
		exitOn(err)
		defer ds.Close()
		fmt.Printf("debug endpoint on http://%s/metrics\n", ds.Addr())
	}

	if *in == "" {
		fmt.Fprintln(os.Stderr, "player: -i is required")
		os.Exit(2)
	}
	dev := display.ByName(*deviceName)
	if dev == nil {
		fmt.Fprintf(os.Stderr, "player: unknown device %q\n", *deviceName)
		os.Exit(2)
	}
	if err := compensate.ValidateBudget(*quality); err != nil {
		fmt.Fprintln(os.Stderr, "player:", err)
		os.Exit(2)
	}
	var method compensate.Method
	switch *methodName {
	case "contrast":
		method = compensate.ContrastEnhancement
	case "tonemap":
		method = compensate.ToneMapping
	default:
		fmt.Fprintf(os.Stderr, "player: unknown method %q\n", *methodName)
		os.Exit(2)
	}
	if *dumpDir != "" {
		exitOn(os.MkdirAll(*dumpDir, 0o755))
	}

	f, err := os.Open(*in)
	exitOn(err)
	defer f.Close()
	r, err := container.NewReader(f)
	exitOn(err)
	hdr := r.Header()
	if hdr.AnnotationsErr != nil {
		fmt.Fprintf(os.Stderr, "player: annotation track damaged (%v); falling back to full backlight\n",
			hdr.AnnotationsErr)
	}

	// Compensation brightens each frame in place by 1/target; frames past
	// the track's end play at full backlight and stay as decoded.
	var cursor *annotation.Cursor
	tracked := 0
	if *doCompensate && hdr.Annotations != nil {
		cursor = hdr.Annotations.NewCursor(hdr.Annotations.QualityIndex(*quality))
		tracked = hdr.Annotations.TotalFrames()
	}
	var clippedSum float64
	client := &stream.Client{Device: dev, Obs: reg}
	client.OnFrame = func(i int, fr *frame.Frame, _ int) {
		if cursor != nil {
			if target, _ := cursor.Next(); i < tracked && target > 0 && target < 1 {
				sp := reg.StartSpan("player.compensate")
				plan := compensate.Plan{Target: target, K: 1 / target}
				clippedSum += plan.ClippedFraction(fr)
				plan.Apply(method, fr)
				sp.End()
			}
		}
		if *dumpDir != "" {
			out, err := os.Create(filepath.Join(*dumpDir, fmt.Sprintf("frame%05d.ppm", i)))
			exitOn(err)
			exitOn(fr.WritePPM(out))
			exitOn(out.Close())
		}
	}
	res, err := client.PlayContainer(context.Background(), r, *quality)
	exitOn(err)

	model := power.DefaultModel(dev)
	measured, err := power.DefaultDAQ().MeasuredSavings(model, res.Reference, res.Trace)
	exitOn(err)

	if *traceOut != "" {
		out, err := os.Create(*traceOut)
		exitOn(err)
		exitOn(model.WriteCSV(out, res.Trace))
		exitOn(out.Close())
	}

	fmt.Printf("stream            %s: %d frames, %dx%d @ %d fps\n",
		*in, res.Frames, hdr.W, hdr.H, hdr.FPS)
	switch {
	case hdr.Annotations != nil:
		fmt.Printf("annotations       %d scenes, %d bytes, quality %.0f%%\n",
			res.Scenes, res.BytesAnn,
			hdr.Annotations.Quality[hdr.Annotations.QualityIndex(*quality)]*100)
	case hdr.AnnotationsErr != nil:
		fmt.Printf("annotations       damaged, ignored (backlight stays at full)\n")
	default:
		fmt.Printf("annotations       none (backlight stays at full)\n")
	}
	fmt.Printf("device            %s (%s panel, %s backlight)\n", dev.Name, dev.Panel, dev.Backlight)
	fmt.Printf("avg backlight     %.1f / 255 (%d switches)\n", res.AvgLevel, res.Switches)
	if *doCompensate {
		fmt.Printf("mean clipped      %.2f%% of pixels\n", 100*clippedSum/float64(res.Frames))
	}
	fmt.Printf("backlight saving  %.1f%%\n", 100*res.BacklightSavings)
	fmt.Printf("total saving      %.1f%% analytic, %.1f%% DAQ-measured\n",
		100*res.TotalSavings, 100*measured)
	fmt.Printf("battery life      %.2fh -> %.2fh on a %.1fWh pack\n",
		model.BatteryLifeHours(res.Reference, *battery), model.BatteryLifeHours(res.Trace, *battery), *battery)
	fmt.Println()
	fmt.Println(res.Ledger)
	res.Ledger.Emit(logger)
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "player:", err)
		os.Exit(1)
	}
}
