package main

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/annotation"
	"repro/internal/codec"
	"repro/internal/compensate"
	"repro/internal/container"
	"repro/internal/display"
	"repro/internal/frame"
	"repro/internal/stream"
)

// buildPlayer builds the player binary into a temporary directory.
func buildPlayer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "player")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// parityTrack opens with a zero-frame record, which the wire format
// admits, and gives every quality rung its own targets, so both the
// record a frame falls in and the rung played show in the levels.
func parityTrack() *annotation.Track {
	return &annotation.Track{
		FPS:     8,
		Quality: compensate.QualityLevels,
		Records: []annotation.Record{
			{Frames: 0, Targets: []uint8{255, 255, 255, 255, 255}},
			{Frames: 6, Targets: []uint8{250, 200, 160, 130, 100}},
			{Frames: 6, Targets: []uint8{230, 180, 140, 110, 90}},
		},
	}
}

// writeParityFile writes the track's frames (a moving gradient) as an
// annotated container and returns its path.
func writeParityFile(t *testing.T, track *annotation.Track) string {
	t.Helper()
	const w, h = 32, 24
	path := filepath.Join(t.TempDir(), "parity.avs")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := track.TotalFrames()
	cw, err := container.NewWriter(f, container.Header{
		W: w, H: h, FPS: track.FPS, FrameCount: n, Annotations: track,
	})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := codec.NewEncoder(w, h, track.FPS, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		fr := frame.New(w, h)
		for p := range fr.Pix {
			v := uint8((p%w*6 + p/w*3 + i*5) % 256)
			fr.Pix[p].R, fr.Pix[p].G, fr.Pix[p].B = v, v/2, 255-v
		}
		ef, err := enc.Encode(fr)
		if err != nil {
			t.Fatal(err)
		}
		if err := cw.WriteFrame(ef); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// playerScene is one power_scene event of the player's debug log.
type playerScene struct{ index, level, frames int }

// runPlayer plays path at quality with debug logging and returns its
// output and the per-scene events it logged.
func runPlayer(t *testing.T, bin, path string, quality float64) (string, []playerScene) {
	t.Helper()
	out, err := exec.Command(bin, "-i", path, "-log-level", "debug",
		"-quality", strconv.FormatFloat(quality, 'g', -1, 64)).CombinedOutput()
	if err != nil {
		t.Fatalf("player: %v\n%s", err, out)
	}
	var scenes []playerScene
	for _, line := range strings.Split(string(out), "\n") {
		_, event, ok := strings.Cut(line, "msg=power_scene ")
		if !ok {
			continue
		}
		kv := map[string]int{}
		for _, field := range strings.Fields(event) {
			k, v, _ := strings.Cut(field, "=")
			if n, err := strconv.Atoi(v); err == nil {
				kv[k] = n
			}
		}
		scenes = append(scenes, playerScene{kv["scene"], kv["level"], kv["frames"]})
	}
	return string(out), scenes
}

// playFixedSession serves the file's bytes as the response to one
// request and plays it as a fixed stream.Client session.
func playFixedSession(t *testing.T, path string, quality float64) *stream.PlayResult {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := stream.ReadRequest(conn); err == nil {
			conn.Write(data)
		}
	}()
	c := &stream.Client{Device: display.IPAQ5555(), Retry: stream.RetryPolicy{MaxAttempts: 1}}
	res, err := c.Play(ln.Addr().String(), "parity", quality)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPlayerScenesAreRecordIndices: the player numbers its per-scene
// report by track record, as the client does, so a leading zero-frame
// record shifts the indices rather than being counted away.
func TestPlayerScenesAreRecordIndices(t *testing.T) {
	track := parityTrack()
	path := writeParityFile(t, track)
	_, scenes := runPlayer(t, buildPlayer(t), path, 0.125)
	var got, want []int
	for _, sc := range scenes {
		got = append(got, sc.index)
	}
	for ri, rec := range track.Records {
		if rec.Frames > 0 {
			want = append(want, ri)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("power_scene indices = %v, want the record indices %v", got, want)
	}
}

// TestPlayerRungMatchesFixedSession: the player and a fixed streaming
// session of the same file pick the same rung. 0.0499 is 12.72/255,
// which the wire rounds to 13, the 5% level's wire form; both must play
// that rung (rung 1), with the same levels and switches.
func TestPlayerRungMatchesFixedSession(t *testing.T) {
	track := parityTrack()
	path := writeParityFile(t, track)
	bin := buildPlayer(t)
	table := track.LevelsFor(display.IPAQ5555())
	for _, c := range []struct {
		quality float64
		rung    int
	}{{0.0499, 1}, {0.10, 2}} {
		res := playFixedSession(t, path, c.quality)
		var want []playerScene
		for _, sc := range res.Ledger.Scenes {
			if sc.Level != table[sc.Index][c.rung] {
				t.Fatalf("quality %v: fixed session played scene %d at level %d, not rung %d's %d",
					c.quality, sc.Index, sc.Level, c.rung, table[sc.Index][c.rung])
			}
			want = append(want, playerScene{level: sc.Level, frames: sc.Frames})
		}
		out, scenes := runPlayer(t, bin, path, c.quality)
		var got []playerScene
		for _, sc := range scenes {
			got = append(got, playerScene{level: sc.level, frames: sc.frames})
		}
		if !slices.Equal(got, want) {
			t.Errorf("quality %v: player scenes (level, frames) = %v, fixed session %v", c.quality, got, want)
		}
		line := fmt.Sprintf("avg backlight     %.1f / 255 (%d switches)", res.AvgLevel, res.Switches)
		if !strings.Contains(out, line) {
			t.Errorf("quality %v: player output lacks the fixed session's %q:\n%s", c.quality, line, out)
		}
	}
}
