package container

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"repro/internal/annotation"
	"repro/internal/codec"
)

func track() *annotation.Track {
	return &annotation.Track{
		FPS:     10,
		Quality: []float64{0, 0.05},
		Records: []annotation.Record{
			{Frames: 20, Targets: []uint8{200, 120}},
			{Frames: 15, Targets: []uint8{90, 80}},
		},
	}
}

func header() Header {
	return Header{W: 48, H: 32, FPS: 10, FrameCount: 2, Annotations: track()}
}

func frames() []*codec.EncodedFrame {
	return []*codec.EncodedFrame{
		{Type: codec.IFrame, QScale: 4, Data: []byte{1, 2, 3, 4, 5}},
		{Type: codec.PFrame, QScale: 4, Data: []byte{9, 8}},
	}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, header())
	if err != nil {
		t.Fatal(err)
	}
	for _, ef := range frames() {
		if err := w.WriteFrame(ef); err != nil {
			t.Fatal(err)
		}
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	h := r.Header()
	if h.W != 48 || h.H != 32 || h.FPS != 10 || h.FrameCount != 2 {
		t.Errorf("header = %+v", h)
	}
	if h.Annotations == nil || len(h.Annotations.Records) != 2 {
		t.Fatalf("annotations not carried: %+v", h.Annotations)
	}
	if h.Annotations.Records[0].Targets[0] != 200 {
		t.Errorf("annotation target = %d", h.Annotations.Records[0].Targets[0])
	}
	for i, want := range frames() {
		got, err := r.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != want.Type || got.QScale != want.QScale || !bytes.Equal(got.Data, want.Data) {
			t.Errorf("frame %d mismatch: %+v vs %+v", i, got, want)
		}
	}
	if _, err := r.ReadFrame(); err != io.EOF {
		t.Errorf("expected io.EOF at end, got %v", err)
	}
}

func TestNoAnnotations(t *testing.T) {
	var buf bytes.Buffer
	h := header()
	h.Annotations = nil
	if _, err := NewWriter(&buf, h); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Header().Annotations != nil {
		t.Error("annotations appeared from nowhere")
	}
}

func TestWriterValidation(t *testing.T) {
	bad := []Header{
		{W: 0, H: 10, FPS: 10},
		{W: 10, H: 0, FPS: 10},
		{W: 10, H: 10, FPS: 0},
		{W: 10, H: 10, FPS: 300},
		{W: 70000, H: 10, FPS: 10},
	}
	for i, h := range bad {
		if _, err := NewWriter(io.Discard, h); err == nil {
			t.Errorf("case %d: invalid header accepted", i)
		}
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XYZW"),
		[]byte("AVS1"),               // truncated
		append([]byte("AVS2"), 0, 0), // short fixed header
	}
	for i, data := range cases {
		if _, err := NewReader(bytes.NewReader(data)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestReaderToleratesCorruptAnnotation(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, header())
	_ = w
	data := buf.Bytes()
	// Header: magic(4) + fixed(10) + chunk header(5); the annotation
	// payload starts at offset 19. Corrupt its magic.
	data[19] ^= 0xFF
	// A damaged annotation track must not kill the stream: the reader
	// records the damage and carries on so playback can degrade to
	// full-backlight passthrough.
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("corrupt annotation killed the reader: %v", err)
	}
	h := r.Header()
	if h.Annotations != nil {
		t.Error("corrupt annotation track decoded anyway")
	}
	if h.AnnotationsErr == nil {
		t.Error("annotation damage not recorded")
	}
}

func TestResumeOffsetRoundTrip(t *testing.T) {
	got, err := DecodeResumeOffset(EncodeResumeOffset(1234))
	if err != nil || got != 1234 {
		t.Errorf("round trip: %d, %v", got, err)
	}
	if _, err := DecodeResumeOffset([]byte{1, 2}); err == nil {
		t.Error("short resume offset accepted")
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, header())
	if err := w.WriteFrame(frames()[0]); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	r, err := NewReader(bytes.NewReader(data[:len(data)-2]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadFrame(); !errors.Is(err, ErrFormat) {
		t.Errorf("truncated frame gave %v, want ErrFormat", err)
	}
}

func TestHugePacketRejected(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, header())
	_ = w
	// Hand-craft a frame header with an absurd length.
	buf.Write([]byte{0, 4, 0xFF, 0xFF, 0xFF, 0xFF})
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadFrame(); !errors.Is(err, ErrFormat) {
		t.Errorf("huge packet gave %v, want ErrFormat", err)
	}
}

// Property: header+frames round-trip through the wire format.
func TestRoundTripProperty(t *testing.T) {
	f := func(w16, h16 uint16, fps8 uint8, payloads [][]byte) bool {
		h := Header{
			W:   int(w16)%2000 + 1,
			H:   int(h16)%2000 + 1,
			FPS: int(fps8)%255 + 1,
		}
		if len(payloads) > 16 {
			payloads = payloads[:16]
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, h)
		if err != nil {
			return false
		}
		for i, p := range payloads {
			ef := &codec.EncodedFrame{Type: codec.FrameType(i % 2), QScale: i%31 + 1, Data: p}
			if err := w.WriteFrame(ef); err != nil {
				return false
			}
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		if r.Header().W != h.W || r.Header().H != h.H || r.Header().FPS != h.FPS {
			return false
		}
		for i, p := range payloads {
			got, err := r.ReadFrame()
			if err != nil || !bytes.Equal(got.Data, p) || got.QScale != i%31+1 {
				return false
			}
		}
		_, err = r.ReadFrame()
		return err == io.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: the reader never panics on arbitrary bytes.
func TestReaderNeverPanicsProperty(t *testing.T) {
	f := func(data []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return true
		}
		for i := 0; i < 4; i++ {
			if _, err := r.ReadFrame(); err != nil {
				break
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestExtraChunksRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	h := header()
	h.Extra = map[uint8][]byte{
		ChunkDecodeCycles: {1, 2, 3, 4},
		ChunkSceneBytes:   {9},
		200:               {42}, // unknown future kind survives
	}
	if _, err := NewWriter(&buf, h); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := r.Header()
	if got.Annotations == nil {
		t.Error("luminance annotations lost")
	}
	if !bytes.Equal(got.Extra[ChunkDecodeCycles], []byte{1, 2, 3, 4}) {
		t.Errorf("decode-cycles chunk = %v", got.Extra[ChunkDecodeCycles])
	}
	if !bytes.Equal(got.Extra[ChunkSceneBytes], []byte{9}) {
		t.Errorf("scene-bytes chunk = %v", got.Extra[ChunkSceneBytes])
	}
	if !bytes.Equal(got.Extra[200], []byte{42}) {
		t.Errorf("unknown chunk = %v", got.Extra[200])
	}
	if _, ok := got.Extra[ChunkLuminance]; ok {
		t.Error("luminance chunk leaked into Extra")
	}
}

func TestLuminanceChunkInExtraRejected(t *testing.T) {
	h := header()
	h.Extra = map[uint8][]byte{ChunkLuminance: {1}}
	if _, err := NewWriter(io.Discard, h); err == nil {
		t.Error("ChunkLuminance in Extra accepted")
	}
}

func TestExtraChunkDeterministicOrder(t *testing.T) {
	h := header()
	h.Extra = map[uint8][]byte{5: {5}, 3: {3}, 9: {9}}
	var a, b bytes.Buffer
	if _, err := NewWriter(&a, h); err != nil {
		t.Fatal(err)
	}
	if _, err := NewWriter(&b, h); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("chunk encoding not deterministic")
	}
}
