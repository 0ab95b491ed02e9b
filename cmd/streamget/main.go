// Command streamget is the mobile client of the paper's system model: it
// connects to a streamd server (or proxy), negotiates a clip at a quality
// level for its device, plays the stream, and reports the power accounting
// of the session plus the annotation side channels it received.
//
// Usage:
//
//	streamget [-addr 127.0.0.1:7400] -clip returnoftheking
//	          [-quality 0.10] [-device ipaq5555]
//	          [-adaptive] [-battery-wh 7.4]
//	          [-retries 5] [-read-timeout 10s]
//	          [-log-level info]
//
// The client survives a lossy link: reads carry deadlines, failed
// sessions reconnect with exponential backoff + jitter, and a reconnect
// resumes from the last fully-decoded frame instead of replaying the
// clip. With -adaptive the session walks the quality ladder live: the
// playout buffer's health (and, with -battery-wh, a draining battery
// gauge) moves the rung at scene boundaries, degrading gracefully under
// a throttled link instead of stalling. Every session ends with the
// power ledger's report ("power saved: NN.N%"); -log-level selects the
// threshold for the structured key=value events the session also emits
// (power_report at info, per-scene detail at debug).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/adaptive"
	"repro/internal/battery"
	"repro/internal/compensate"
	"repro/internal/display"
	"repro/internal/dvs"
	"repro/internal/netsched"
	"repro/internal/obs"
	"repro/internal/stream"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7400", "server or proxy address")
	clip := flag.String("clip", "", "clip to request")
	quality := flag.Float64("quality", 0.10, "accepted clipping budget (0..0.20)")
	deviceName := flag.String("device", "ipaq5555", "device profile")
	retries := flag.Int("retries", 0, "max connection attempts (0 = default of 5)")
	readTimeout := flag.Duration("read-timeout", 0, "per-read deadline on the stream (0 = default of 10s)")
	adaptiveMode := flag.Bool("adaptive", false, "walk the quality ladder live")
	batteryWh := flag.Float64("battery-wh", 0, "with -adaptive: watt-hours left in the battery (0 = no battery floor)")
	logLevel := flag.String("log-level", "info", "structured event threshold (debug, info, warn, error)")
	flag.Parse()

	lvl, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "streamget:", err)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, lvl)

	if *clip == "" {
		fmt.Fprintln(os.Stderr, "streamget: -clip is required")
		os.Exit(2)
	}
	dev := display.ByName(*deviceName)
	if dev == nil {
		fmt.Fprintf(os.Stderr, "streamget: unknown device %q\n", *deviceName)
		os.Exit(2)
	}
	if err := compensate.ValidateBudget(*quality); err != nil {
		fmt.Fprintln(os.Stderr, "streamget:", err)
		os.Exit(2)
	}
	if *batteryWh < 0 {
		fmt.Fprintln(os.Stderr, "streamget: -battery-wh must be >= 0")
		os.Exit(2)
	}
	if *batteryWh > 0 && !*adaptiveMode {
		fmt.Fprintln(os.Stderr, "streamget: -battery-wh needs -adaptive (the battery floor is a ladder input)")
		os.Exit(2)
	}

	client := &stream.Client{
		Device:      dev,
		Retry:       stream.RetryPolicy{MaxAttempts: *retries},
		ReadTimeout: *readTimeout,
	}
	if *adaptiveMode {
		cfg := &adaptive.LadderConfig{}
		if *batteryWh > 0 {
			cfg.Battery = battery.NewGaugeWh(*batteryWh)
		}
		client.Ladder = cfg
	}
	res, err := client.Play(*addr, *clip, *quality)
	if err != nil {
		fmt.Fprintln(os.Stderr, "streamget:", err)
		os.Exit(1)
	}

	fmt.Printf("clip              %s @ %.0f%% quality on %s\n", *clip, *quality*100, dev.Name)
	if res.Retries > 0 || res.Resumes > 0 {
		fmt.Printf("resilience        %d retries, %d mid-clip resumes\n", res.Retries, res.Resumes)
	}
	if len(res.Degraded) > 0 {
		fmt.Printf("degraded          dropped side channels: %s\n", strings.Join(res.Degraded, ", "))
	}
	if *adaptiveMode {
		fmt.Printf("quality ladder    %d switches, finished on rung %d (%.0f%% clipping), worst lag %.2fs\n",
			res.QualitySwitches, res.FinalRung, compensate.QualityLevels[res.FinalRung]*100, res.MaxLagSeconds)
		if res.Ledger != nil && len(res.Ledger.RungSeconds) > 0 {
			var dwell []string
			for _, rung := range res.Ledger.SortedRungs() {
				dwell = append(dwell, fmt.Sprintf("rung %d: %.1fs", rung, res.Ledger.RungSeconds[rung]))
			}
			fmt.Printf("rung dwell        %s\n", strings.Join(dwell, ", "))
		}
	}
	fmt.Printf("frames            %d in %d scenes\n", res.Frames, res.Scenes)
	fmt.Printf("stream bytes      %d (backlight annotations %d bytes)\n", res.BytesStream, res.BytesAnn)
	fmt.Printf("avg backlight     %.1f/255 (%d switches)\n", res.AvgLevel, res.Switches)
	fmt.Printf("backlight saving  %.1f%%\n", res.BacklightSavings*100)
	fmt.Printf("total saving      %.1f%%\n", res.TotalSavings*100)

	if len(res.DecodeCycles) > 0 {
		// What a DVS-capable client would do with the cycle annotations.
		table := dvs.XScale()
		actual := make([]float64, len(res.DecodeCycles))
		for i, c := range res.DecodeCycles {
			actual[i] = float64(c)
		}
		deadline := 1.0 / 15
		static, err1 := dvs.Simulate(table, dvs.StaticMax{}, actual, deadline)
		annotated, err2 := dvs.Simulate(table, dvs.Annotated{Cycles: res.DecodeCycles}, actual, deadline)
		if err1 == nil && err2 == nil && static.EnergyJoules > 0 {
			fmt.Printf("dvs annotations   %d frames; annotated governor would save %.1f%% CPU energy\n",
				len(res.DecodeCycles), (1-annotated.EnergyJoules/static.EnergyJoules)*100)
		}
	}
	if len(res.NetScenes) > 0 {
		wnic := netsched.DefaultWNIC()
		results, err := wnic.Compare(res.NetScenes, 0.1)
		if err == nil {
			for _, r := range results {
				if r.Policy == "annotated" {
					fmt.Printf("net annotations   %d scenes; burst scheduling would save %.1f%% WNIC energy\n",
						len(res.NetScenes), r.Savings*100)
				}
			}
		}
	}
	if res.Ledger != nil {
		fmt.Println()
		fmt.Println(res.Ledger)
		res.Ledger.Emit(logger)
	}
}
