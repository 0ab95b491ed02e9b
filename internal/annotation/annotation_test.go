package annotation

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/compensate"
	"repro/internal/display"
	"repro/internal/histogram"
	"repro/internal/scene"
)

func sceneWith(start, end int, luma ...uint8) scene.Scene {
	return scene.Scene{
		Start:   start,
		End:     end,
		MaxLuma: float64(histogram.FromLuma(luma).Max()),
		Hist:    histogram.FromLuma(luma),
	}
}

func sampleTrack() *Track {
	scenes := []scene.Scene{
		sceneWith(0, 10, 40, 60, 200),
		sceneWith(10, 18, 90, 100, 110),
	}
	return FromScenes(10, scenes, nil)
}

func TestFromScenesDefaults(t *testing.T) {
	tr := sampleTrack()
	if !reflect.DeepEqual(tr.Quality, compensate.QualityLevels) {
		t.Errorf("Quality = %v", tr.Quality)
	}
	if len(tr.Records) != 2 {
		t.Fatalf("records = %d, want 2", len(tr.Records))
	}
	if tr.Records[0].Frames != 10 || tr.Records[1].Frames != 8 {
		t.Errorf("frame counts = %d,%d", tr.Records[0].Frames, tr.Records[1].Frames)
	}
	// Lossless target of scene 0 is its max luminance (200/255).
	if tr.Records[0].Targets[0] != 200 {
		t.Errorf("scene 0 lossless target = %d, want 200", tr.Records[0].Targets[0])
	}
	if tr.TotalFrames() != 18 {
		t.Errorf("TotalFrames = %d, want 18", tr.TotalFrames())
	}
}

func TestQualityLevelTargetsMonotone(t *testing.T) {
	tr := sampleTrack()
	for i, r := range tr.Records {
		for q := 1; q < len(r.Targets); q++ {
			if r.Targets[q] > r.Targets[q-1] {
				t.Errorf("record %d: target rose with quality budget: %v", i, r.Targets)
			}
		}
	}
}

func TestQualityIndex(t *testing.T) {
	tr := sampleTrack()
	cases := []struct {
		budget float64
		want   int
	}{
		{0, 0}, {0.03, 0}, {0.05, 1}, {0.0499, 1}, {0.07, 1}, {0.10, 2}, {0.20, 4}, {0.9, 4},
	}
	for _, c := range cases {
		if got := tr.QualityIndex(c.budget); got != c.want {
			t.Errorf("QualityIndex(%v) = %d, want %d", c.budget, got, c.want)
		}
	}
}

func TestTargetAt(t *testing.T) {
	tr := sampleTrack()
	if got := tr.TargetAt(0, 0); math.Abs(got-200.0/255) > 1e-9 {
		t.Errorf("TargetAt(0) = %v", got)
	}
	if got := tr.TargetAt(12, 0); math.Abs(got-110.0/255) > 1e-9 {
		t.Errorf("TargetAt(12) = %v", got)
	}
	// Past the end: stick to the last scene.
	if got := tr.TargetAt(99, 0); math.Abs(got-110.0/255) > 1e-9 {
		t.Errorf("TargetAt(99) = %v", got)
	}
}

func TestTargetAtEmptyTrack(t *testing.T) {
	tr := &Track{FPS: 10, Quality: []float64{0}}
	if got := tr.TargetAt(0, 0); got != 1 {
		t.Errorf("empty TargetAt = %v, want safe 1", got)
	}
}

func TestCursorWalksScenes(t *testing.T) {
	tr := sampleTrack()
	cur := tr.NewCursor(0)
	starts := 0
	for i := 0; i < tr.TotalFrames(); i++ {
		target, start := cur.Next()
		if start {
			starts++
		}
		if want := tr.TargetAt(i, 0); math.Abs(target-want) > 1e-9 {
			t.Fatalf("frame %d: cursor target %v, want %v", i, target, want)
		}
	}
	if starts != 2 {
		t.Errorf("scene starts = %d, want 2", starts)
	}
}

func TestCursorPastEndSticks(t *testing.T) {
	tr := sampleTrack()
	cur := tr.NewCursor(1)
	for i := 0; i < tr.TotalFrames(); i++ {
		cur.Next()
	}
	target, start := cur.Next()
	if start {
		t.Error("past-end frame flagged as scene start")
	}
	if want := tr.TargetAt(17, 1); math.Abs(target-want) > 1e-9 {
		t.Errorf("past-end target %v, want %v", target, want)
	}
}

func TestCursorEmptyTrackSafe(t *testing.T) {
	tr := &Track{FPS: 10, Quality: []float64{0}}
	cur := tr.NewCursor(0)
	target, _ := cur.Next()
	if target != 1 {
		t.Errorf("empty-track cursor target = %v, want 1", target)
	}
}

// TestZeroFrameRecordsOwnNoFrame: a zero-frame record, wherever it sits,
// never owns a frame, never opens a scene and never lends its target —
// and Walker, Cursor and TargetAt agree on every frame, past the end
// too.
func TestZeroFrameRecordsOwnNoFrame(t *testing.T) {
	rec := func(frames int, target uint8) Record { return Record{Frames: frames, Targets: []uint8{target}} }
	cases := map[string][]Record{
		"leading":   {rec(0, 7), rec(2, 100), rec(3, 50)},
		"middle":    {rec(2, 100), rec(0, 7), rec(3, 50)},
		"trailing":  {rec(2, 100), rec(0, 7)},
		"only-zero": {rec(0, 7)},
		"scattered": {rec(0, 7), rec(0, 8), rec(1, 100), rec(0, 9), rec(2, 50), rec(0, 6)},
	}
	for name, records := range cases {
		tr := &Track{FPS: 10, Quality: []float64{0}, Records: records}
		// The expected walk, spelled out: each non-empty record's frames
		// in order, then past the end the last such record's target (1
		// when there is none).
		type frame struct {
			rec    int
			start  bool
			target float64
		}
		var want []frame
		last := 1.0
		for ri, r := range records {
			for i := 0; i < r.Frames; i++ {
				last = float64(r.Targets[0]) / 255
				want = append(want, frame{ri, i == 0, last})
			}
		}
		for i := 0; i < 3; i++ {
			want = append(want, frame{len(records), false, last})
		}
		walk, cur := tr.Walk(), tr.NewCursor(0)
		for i, w := range want {
			ri, start := walk.Next()
			target, cstart := cur.Next()
			if ri != w.rec || start != w.start {
				t.Errorf("%s: frame %d: walker (record %d, start %v), want (%d, %v)", name, i, ri, start, w.rec, w.start)
			}
			if target != w.target || cstart != w.start {
				t.Errorf("%s: frame %d: cursor (target %v, start %v), want (%v, %v)", name, i, target, cstart, w.target, w.start)
			}
			if got := tr.TargetAt(i, 0); got != w.target {
				t.Errorf("%s: frame %d: TargetAt %v, want %v", name, i, got, w.target)
			}
		}
	}
}

func TestNewCursorPanicsOnBadIndex(t *testing.T) {
	tr := sampleTrack()
	for _, qi := range []int{-1, len(tr.Quality)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCursor(%d) did not panic", qi)
				}
			}()
			tr.NewCursor(qi)
		}()
	}
}

func TestLevelsFor(t *testing.T) {
	tr := sampleTrack()
	dev := display.IPAQ5555()
	levels := tr.LevelsFor(dev)
	if len(levels) != len(tr.Records) {
		t.Fatalf("levels rows = %d", len(levels))
	}
	for i, row := range levels {
		for q, lvl := range row {
			want := dev.LevelFor(float64(tr.Records[i].Targets[q]) / 255)
			if lvl != want {
				t.Errorf("levels[%d][%d] = %d, want %d", i, q, lvl, want)
			}
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := sampleTrack()
	data := tr.Encode()
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.FPS != tr.FPS || len(got.Records) != len(tr.Records) {
		t.Fatalf("decoded header mismatch: %+v", got)
	}
	for i := range tr.Records {
		if got.Records[i].Frames != tr.Records[i].Frames {
			t.Errorf("record %d frames mismatch", i)
		}
		if !bytes.Equal(got.Records[i].Targets, tr.Records[i].Targets) {
			t.Errorf("record %d targets mismatch: %v vs %v",
				i, got.Records[i].Targets, tr.Records[i].Targets)
		}
	}
	for i := range tr.Quality {
		if math.Abs(got.Quality[i]-tr.Quality[i]) > 1.0/255 {
			t.Errorf("quality %d = %v, want ~%v", i, got.Quality[i], tr.Quality[i])
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		[]byte("XXXX"),
		[]byte("ANB1"),                           // truncated after magic
		append([]byte("ANB1"), 5, 0, 12, 25, 38), // truncated quality list
	}
	for i, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("case %d: Decode accepted garbage", i)
		}
	}
}

func TestDecodeRejectsTruncatedValid(t *testing.T) {
	data := sampleTrack().Encode()
	for cut := 1; cut < len(data); cut += 3 {
		if _, err := Decode(data[:cut]); err == nil {
			t.Errorf("Decode accepted truncation at %d", cut)
		}
	}
}

func TestSizeIsHundredsOfBytesForLongClip(t *testing.T) {
	// A 3-minute clip at 10 fps with 4-second scenes: 45 scenes.
	var scenes []scene.Scene
	for i := 0; i < 45; i++ {
		scenes = append(scenes, sceneWith(i*40, (i+1)*40, uint8(50+i%3), uint8(150+i%5)))
	}
	tr := FromScenes(10, scenes, nil)
	size := tr.Size()
	if size > 1024 {
		t.Errorf("annotation size = %dB, paper promises hundreds of bytes", size)
	}
	if size < 16 {
		t.Errorf("annotation size = %dB, implausibly small", size)
	}
}

// Property: encode/decode round-trips arbitrary well-formed tracks.
func TestRoundTripProperty(t *testing.T) {
	f := func(lens []uint16, targets []uint8, qCount uint8) bool {
		qn := int(qCount)%4 + 1
		if len(lens) == 0 {
			return true
		}
		if len(lens) > 50 {
			lens = lens[:50]
		}
		tr := &Track{FPS: 15, Quality: make([]float64, qn)}
		for i := range tr.Quality {
			tr.Quality[i] = float64(i) * 0.05
		}
		for i, l := range lens {
			r := Record{Frames: int(l)%1000 + 1, Targets: make([]uint8, qn)}
			for q := range r.Targets {
				if len(targets) > 0 {
					r.Targets[q] = targets[(i*qn+q)%len(targets)]
				}
			}
			tr.Records = append(tr.Records, r)
		}
		got, err := Decode(tr.Encode())
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got.Records, tr.Records)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: decoding arbitrary bytes never panics.
func TestDecodeNeverPanicsProperty(t *testing.T) {
	f := func(data []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		Decode(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: decoding arbitrary mutations of a valid encoding never panics
// (deeper coverage than pure random bytes, which rarely pass the magic).
func TestDecodeMutationProperty(t *testing.T) {
	base := sampleTrack().Encode()
	f := func(pos uint16, val uint8) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		data := append([]byte(nil), base...)
		data[int(pos)%len(data)] = val
		Decode(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLevelTableRoundTrip(t *testing.T) {
	tr := sampleTrack()
	levels := tr.LevelsFor(display.IPAQ5555())
	data, err := EncodeLevels(levels)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeLevels(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, levels) {
		t.Errorf("level table round trip: %v vs %v", got, levels)
	}
}

func TestEncodeLevelsValidation(t *testing.T) {
	if _, err := EncodeLevels([][]int{{1, 2}, {3}}); err == nil {
		t.Error("ragged rows accepted")
	}
	if _, err := EncodeLevels([][]int{{300}}); err == nil {
		t.Error("out-of-range level accepted")
	}
	data, err := EncodeLevels(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeLevels(data)
	if err != nil || len(got) != 0 {
		t.Errorf("empty table round trip: %v, %v", got, err)
	}
}

func TestDecodeLevelsRejectsGarbage(t *testing.T) {
	for i, data := range [][]byte{nil, {1}, {0, 0, 0, 2, 3, 1}, {255, 255, 255, 255, 1}} {
		if _, err := DecodeLevels(data); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestDecodeLevelsNeverPanicsProperty(t *testing.T) {
	f := func(data []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		DecodeLevels(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
