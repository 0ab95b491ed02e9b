package stream

import (
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"reflect"
	"slices"
	"testing"

	"repro/internal/adaptive"
	"repro/internal/annotation"
	"repro/internal/container"
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

// TestRungForAgreesAcrossWire: the server picks a session's rung with
// QualityIndex on the exact quality column, the client and the player
// on the column as the wire carries it. For every budget, both must
// pick the same rung — the level of a fixed session's backlight depends
// on it.
func TestRungForAgreesAcrossWire(t *testing.T) {
	_, exact, _, _, _ := buildServingFixture(t)
	wire, err := annotation.Decode(exact.Encode())
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= 255; k++ {
		budget := float64(k) / 255
		if s, c := exact.QualityIndex(budget), wire.QualityIndex(budget); s != c {
			t.Errorf("budget %d/255: server rung %d, client rung %d", k, s, c)
		}
	}
	for qi, q := range exact.Quality {
		for _, tr := range []*annotation.Track{exact, wire} {
			if got := tr.QualityIndex(q); got != qi {
				t.Errorf("budget %v (level %d exactly) selects rung %d", q, qi, got)
			}
		}
	}
}

// TestOnFrameMayModifyFrame: OnFrame may write over the frame it is
// handed (cmd/player compensates it in place). The decoder predicts
// later frames from its own reference pictures, so a client that
// overwrites every frame decodes the same later frames as one that
// does not.
func TestOnFrameMayModifyFrame(t *testing.T) {
	_, track, _, _, _ := buildServingFixture(t)
	addr, n := serveCraftedTrack(t, track, nil)
	play := func(overwrite bool) []uint64 {
		var digests []uint64
		c := &Client{Device: display.IPAQ5555(), OnFrame: func(i int, f *frame.Frame, backlight int) {
			digests = append(digests, frameDigest(f))
			if overwrite {
				for p := range f.Pix {
					f.Pix[p].R, f.Pix[p].G, f.Pix[p].B = 255, 0, 255
				}
			}
		}}
		if _, err := c.Play(addr, "night", 0.10); err != nil {
			t.Fatal(err)
		}
		return digests
	}
	want, got := play(false), play(true)
	if len(want) != n || n < 2 {
		t.Fatalf("played %d frames of %d", len(want), n)
	}
	assertSameDigests(t, want, got, "client overwriting every frame")
}

// TestPlayContainerMatchesFixedSession: a stream played from a local
// container goes through the same playback loop as a fixed session of
// it — same levels, same per-scene ledger — but its ledger draws no
// radio power and counts nothing on the wire. An adaptive client is
// refused.
func TestPlayContainerMatchesFixedSession(t *testing.T) {
	src, track, v, _, _ := buildServingFixture(t)
	var file bytes.Buffer
	if _, err := send(context.Background(), &file, src, track, v, nil, 0, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	addr, _ := serveCraftedTrack(t, track, nil)
	want, wantLevels := playLevels(t, addr, 0.10)

	var levels []int
	c := &Client{Device: display.IPAQ5555(), OnFrame: func(i int, f *frame.Frame, backlight int) {
		levels = append(levels, backlight)
	}}
	open := func() *container.Reader {
		r, err := container.NewReader(bytes.NewReader(file.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	got, err := c.PlayContainer(context.Background(), open(), 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(levels, wantLevels) {
		t.Errorf("file played levels %v, fixed session %v", levels, wantLevels)
	}
	if !reflect.DeepEqual(got.Ledger.Scenes, want.Ledger.Scenes) {
		t.Errorf("file ledger scenes %v, fixed session %v", got.Ledger.Scenes, want.Ledger.Scenes)
	}
	if l := got.Ledger; l.WireBytes != 0 || l.AnnotationBytes != 0 || l.RadioActiveSeconds != 0 {
		t.Errorf("file ledger has %d wire bytes, %d annotation bytes, %.2fs radio active; want none",
			l.WireBytes, l.AnnotationBytes, l.RadioActiveSeconds)
	}
	if got.Trace == nil || got.Reference == nil || got.Trace.Duration() != got.Ledger.Seconds {
		t.Error("result does not expose the ledger's traces")
	}

	c.Ladder = &adaptive.LadderConfig{}
	if _, err := c.PlayContainer(context.Background(), open(), 0.10); err == nil {
		t.Error("an adaptive client played a file")
	}
}

// TestAnnotationBytesAreTheChunkWireLength: a session counts the
// annotation bytes it read, the ChunkLuminance payload as it came off the
// wire, in PlayResult.BytesAnn and in its ledger. A non-canonical payload
// (here the first record's frame count as a padded two-byte uvarint,
// which Decode accepts) is longer than the track's own encoding, and the
// wire length is still the count.
func TestAnnotationBytesAreTheChunkWireLength(t *testing.T) {
	src, track, v, _, _ := buildServingFixture(t)
	var stream bytes.Buffer
	if _, err := send(context.Background(), &stream, src, track, v, nil, 0, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	// Walk the header's chunk list: magic, 10 fixed bytes ending in the
	// chunk count, then [kind u8][length u32][payload] per chunk.
	b := stream.Bytes()
	start, end := -1, -1
	for i, p := 0, 14; i < int(b[13]); i++ {
		n := int(binary.BigEndian.Uint32(b[p+1:]))
		if b[p] == container.ChunkLuminance {
			start, end = p+5, p+5+n
		}
		p += 5 + n
	}
	if start < 0 {
		t.Fatal("stream has no luminance chunk")
	}
	canonical := b[start:end]
	off := 4 + 1 + len(track.Quality) + 2 + 4 // first record's frame count
	if canonical[off] >= 0x80 {
		t.Fatalf("first record's frame count byte %#x is not a one-byte uvarint", canonical[off])
	}
	padded := append(append(slices.Clip(canonical[:off]), canonical[off]|0x80, 0), canonical[off+1:]...)
	if dec, err := annotation.Decode(padded); err != nil || !reflect.DeepEqual(dec.Records, track.Records) {
		t.Fatalf("padded track does not decode to the served records (err %v)", err)
	}

	for _, payload := range [][]byte{canonical, padded} {
		wire := slices.Concat(b[:start-4], binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload, b[end:])
		addr := fakeServer(t, func(conn net.Conn, req Request) { conn.Write(wire) })
		res, _ := playLevels(t, addr, 0.10)
		if res.BytesAnn != len(payload) || res.Ledger.AnnotationBytes != int64(len(payload)) {
			t.Errorf("%d-byte luminance chunk counted as BytesAnn %d, ledger %d",
				len(payload), res.BytesAnn, res.Ledger.AnnotationBytes)
		}
	}
}
