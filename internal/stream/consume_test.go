package stream

import (
	"context"
	"net"
	"slices"
	"testing"

	"repro/internal/annotation"
	"repro/internal/display"
	"repro/internal/frame"
)

// serveCraftedTrack starts a server that answers every request with the
// fixture variant under the given annotation track and device-levels
// chunk, so a client can be fed tracks the annotation pipeline never
// produces.
func serveCraftedTrack(t *testing.T, track *annotation.Track, levels []byte) (addr string, frames int) {
	t.Helper()
	src, _, v, _, _ := buildServingFixture(t)
	addr = fakeServer(t, func(conn net.Conn, req Request) {
		send(context.Background(), conn, src, track, v, levels, 0, nil, nil, nil)
	})
	return addr, len(v.frames)
}

// playLevels plays one fixed session and returns the backlight level
// OnFrame saw for every frame.
func playLevels(t *testing.T, addr string, quality float64) (*PlayResult, []int) {
	t.Helper()
	var levels []int
	c := &Client{Device: display.IPAQ5555(), OnFrame: func(i int, f *frame.Frame, backlight int) {
		levels = append(levels, backlight)
	}}
	res, err := c.Play(addr, "night", quality)
	if err != nil {
		t.Fatal(err)
	}
	return res, levels
}

// TestFixedSessionSkipsZeroFrameRecords: the wire format admits
// zero-frame records, and the server's level table has one row per
// record. A fixed session must apply, and enter in its ledger, the row
// of the record each frame falls in — not the row at the frame's count
// of non-empty scenes.
func TestFixedSessionSkipsZeroFrameRecords(t *testing.T) {
	_, fixture, _, _, _ := buildServingFixture(t)
	// Mid-bracket budget: both sides pick the same rung however they
	// round it.
	const budget = 0.125
	qi := fixture.QualityIndex(budget)
	dev := display.IPAQ5555()
	track := &annotation.Track{FPS: fixture.FPS, Quality: fixture.Quality}
	empty := make([]uint8, len(fixture.Quality))
	track.Records = append(track.Records, annotation.Record{Frames: 0, Targets: empty})
	track.Records = append(track.Records, fixture.Records...)
	rows := track.LevelsFor(dev)
	// A row no real scene would produce, so applying it is visible.
	for q := range rows[0] {
		rows[0][q] = 7
	}
	chunk, err := annotation.EncodeLevels(rows)
	if err != nil {
		t.Fatal(err)
	}
	addr, n := serveCraftedTrack(t, track, chunk)

	res, levels := playLevels(t, addr, budget)
	if !res.ServerLevels {
		t.Fatal("client ignored the device-levels chunk")
	}
	if len(levels) != n {
		t.Fatalf("played %d frames, want %d", len(levels), n)
	}
	var want []int
	var wantScenes []int
	for ri, rec := range track.Records {
		if rec.Frames > 0 {
			wantScenes = append(wantScenes, ri)
		}
		for i := 0; i < rec.Frames; i++ {
			want = append(want, rows[ri][qi])
		}
	}
	for i := range want {
		if levels[i] != want[i] {
			t.Fatalf("frame %d played at backlight %d, want %d (its record's row)", i, levels[i], want[i])
		}
	}
	var gotScenes []int
	for _, sc := range res.Ledger.Scenes {
		gotScenes = append(gotScenes, sc.Index)
	}
	if !slices.Equal(gotScenes, wantScenes) {
		t.Errorf("ledger scene indexes = %v, want %v", gotScenes, wantScenes)
	}
}

// TestFixedSessionResolvesLevelsWithoutUsableChunk: a device-levels
// chunk whose table does not match the track's shape (here one column
// for five quality levels) is not used; the client resolves every frame
// through its own LUT, as when no chunk came at all.
func TestFixedSessionResolvesLevelsWithoutUsableChunk(t *testing.T) {
	_, track, _, _, _ := buildServingFixture(t)
	const budget = 0.125
	qi := track.QualityIndex(budget)
	narrow := make([][]int, len(track.Records))
	for i := range narrow {
		narrow[i] = []int{7}
	}
	chunk, err := annotation.EncodeLevels(narrow)
	if err != nil {
		t.Fatal(err)
	}
	rows := track.LevelsFor(display.IPAQ5555())
	var want []int
	for ri, rec := range track.Records {
		for i := 0; i < rec.Frames; i++ {
			want = append(want, rows[ri][qi])
		}
	}
	for _, c := range []struct {
		name  string
		chunk []byte
	}{{"narrow chunk", chunk}, {"no chunk", nil}} {
		addr, _ := serveCraftedTrack(t, track, c.chunk)
		res, levels := playLevels(t, addr, budget)
		if res.ServerLevels {
			t.Errorf("%s: client applied a level table of the wrong shape", c.name)
		}
		if !slices.Equal(levels, want) {
			t.Errorf("%s: played levels %v, want the device LUT's %v", c.name, levels, want)
		}
	}
}

// TestFixedSessionPlaysTrackWithoutQualities: a track with no quality
// levels names no target to play at. The client must treat it as a
// damaged annotation track — full backlight, "annotations" degraded —
// and still play every frame, not panic.
func TestFixedSessionPlaysTrackWithoutQualities(t *testing.T) {
	_, fixture, _, _, _ := buildServingFixture(t)
	track := &annotation.Track{FPS: fixture.FPS}
	for _, rec := range fixture.Records {
		track.Records = append(track.Records, annotation.Record{Frames: rec.Frames})
	}
	addr, n := serveCraftedTrack(t, track, nil)

	res, levels := playLevels(t, addr, 0.10)
	if res.Frames != n {
		t.Fatalf("played %d frames, want %d", res.Frames, n)
	}
	if res.Annotated {
		t.Error("a track without quality levels was applied")
	}
	if !slices.Contains(res.Degraded, "annotations") {
		t.Errorf("degraded = %v, want it to name annotations", res.Degraded)
	}
	for i, l := range levels {
		if l != display.MaxLevel {
			t.Fatalf("frame %d at backlight %d, want full backlight %d", i, l, display.MaxLevel)
		}
	}
}

// TestRungForAgreesAcrossWire: the server picks a session's rung from
// the exact quality column, the client from the column as the wire
// carries it. For every budget, both must pick the same rung — the
// level of a fixed session's backlight depends on it.
func TestRungForAgreesAcrossWire(t *testing.T) {
	_, exact, _, _, _ := buildServingFixture(t)
	wire, err := annotation.Decode(exact.Encode())
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= 255; k++ {
		budget := float64(k) / 255
		if s, c := rungFor(exact, budget), rungFor(wire, budget); s != c {
			t.Errorf("budget %d/255: server rung %d, client rung %d", k, s, c)
		}
	}
	for qi, q := range exact.Quality {
		if got := rungFor(exact, q); got != qi {
			t.Errorf("budget %v (level %d exactly) selects rung %d", q, qi, got)
		}
	}
}
