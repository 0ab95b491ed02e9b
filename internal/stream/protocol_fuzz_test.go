package stream

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/container"
)

// FuzzReadRequest hardens the negotiation parser: arbitrary bytes must
// never panic, and anything it accepts must survive a write/read round
// trip unchanged. Seeds cover the one request framing — fixed, resume,
// raw, traced and adaptive requests — plus legacy RQS1/RQS2 magics that
// the parser must reject.
func FuzzReadRequest(f *testing.F) {
	traced := Request{
		Clip: "night", Quality: 0.10, Device: "ipaq5555",
		Mode: ModeAnnotated, StartFrame: 7,
	}
	traced.Trace.Trace[0] = 0xab
	traced.Trace.Span[7] = 0x01
	traced.Trace.Sampled = true
	for _, req := range []Request{
		{Clip: "night", Quality: 0.10, Device: "ipaq5555", Mode: ModeAnnotated},
		{Clip: "n", Quality: 1, Mode: ModeRaw},
		{Clip: "night", Quality: 0.10, Device: "ipaq5555", Mode: ModeAnnotated, StartFrame: 7},
		{Clip: "day", Quality: 0.5, Device: "ipaq5555", Mode: ModeAnnotated},
		{Clip: "night", Quality: 0.10, Device: "ipaq5555", Mode: ModeAnnotated, Adaptive: true},
		{Clip: "night", Quality: 0.05, Device: "ipaq5555", Mode: ModeAnnotated, Adaptive: true, StartFrame: 12},
		traced,
	} {
		var buf bytes.Buffer
		if err := WriteRequest(&buf, req); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("RQS1"))
	f.Add([]byte("RQS2\xff\x00\x01x\x00"))
	f.Add([]byte("RQS4\x02\x00\x01x\x00\x00\x00\x00\x00\x02"))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ReadRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteRequest(&out, req); err != nil {
			t.Fatalf("parsed request %+v does not re-encode: %v", req, err)
		}
		got, err := ReadRequest(&out)
		if err != nil {
			t.Fatalf("re-encoded request does not parse: %v", err)
		}
		if got != req {
			t.Fatalf("round trip changed the request: %+v vs %+v", got, req)
		}
	})
}

// FuzzReadResponseMagic hardens the response discriminator: no panic on
// arbitrary bytes, and the invariant that a nil-error return means the
// container magic was seen.
func FuzzReadResponseMagic(f *testing.F) {
	var okResp bytes.Buffer
	okResp.Write(container.Magic[:])
	f.Add(okResp.Bytes())
	var errResp bytes.Buffer
	WriteError(&errResp, "boom")
	f.Add(errResp.Bytes())
	var capResp bytes.Buffer
	WriteOverCapacity(&capResp)
	f.Add(capResp.Bytes())
	f.Add([]byte("ERR1\xff\xff"))
	f.Fuzz(func(t *testing.T, data []byte) {
		magic, remoteErr, err := ReadResponseMagic(bytes.NewReader(data))
		if err == nil && remoteErr == nil && magic != container.Magic {
			t.Fatalf("accepted magic %q", magic[:])
		}
		if remoteErr != nil && errors.Is(remoteErr, ErrOverCapacity) &&
			!bytes.Contains(data, []byte(overCapacityMsg)) {
			t.Fatalf("over-capacity verdict without the wire message in %q", data)
		}
	})
}

// FuzzReadQualitySwitch hardens the mid-stream control channel: no
// panic on arbitrary bytes, and anything accepted must round-trip.
func FuzzReadQualitySwitch(f *testing.F) {
	for rung := 0; rung < 5; rung++ {
		var buf bytes.Buffer
		if err := WriteQualitySwitch(&buf, rung); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("QSW1"))
	f.Add([]byte("QSW1\xff"))
	f.Add([]byte("XXXX\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rung, err := ReadQualitySwitch(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteQualitySwitch(&out, rung); err != nil {
			t.Fatalf("parsed rung %d does not re-encode: %v", rung, err)
		}
		got, err := ReadQualitySwitch(&out)
		if err != nil || got != rung {
			t.Fatalf("round trip changed the rung: %d vs %d (%v)", got, rung, err)
		}
	})
}

// TestRequestV4Framing pins the adaptive negotiation: the flag survives
// a round trip under the RQS4 magic, and leaving it off is a fixed
// session on the same framing.
func TestRequestV4Framing(t *testing.T) {
	var buf bytes.Buffer
	want := Request{Clip: "night", Quality: 0.10, Device: "ipaq5555",
		Mode: ModeAnnotated, Adaptive: true, StartFrame: 3}
	if err := WriteRequest(&buf, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("RQS4")) {
		t.Fatalf("request framed as %q", buf.Bytes()[:4])
	}
	got, err := ReadRequest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Adaptive || got.StartFrame != 3 {
		t.Errorf("adaptive round trip lost fields: %+v", got)
	}
	// A request without the flag is a fixed session on the same wire.
	plain := Request{Clip: "night", Quality: 0.2, Mode: ModeAnnotated}
	var pb bytes.Buffer
	if err := WriteRequest(&pb, plain); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadRequest(&pb); err != nil || got.Adaptive {
		t.Errorf("fixed round trip: %+v, %v", got, err)
	}
}

// TestQualitySwitchFraming pins the control-message wire format and its
// failure modes.
func TestQualitySwitchFraming(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteQualitySwitch(&buf, 4); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "QSW1\x04" {
		t.Fatalf("wire bytes = %q, want QSW1\\x04", got)
	}
	if _, err := ReadQualitySwitch(bytes.NewReader([]byte("QSW9\x00"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := ReadQualitySwitch(bytes.NewReader(nil)); !errors.Is(err, io.EOF) {
		t.Errorf("clean EOF reported as %v", err)
	}
	if _, err := ReadQualitySwitch(bytes.NewReader([]byte("QS"))); err == nil || errors.Is(err, io.EOF) {
		t.Errorf("truncated message reported as %v, want a non-EOF error", err)
	}
	if err := WriteQualitySwitch(&bytes.Buffer{}, 300); err == nil {
		t.Error("out-of-range rung accepted")
	}
	if err := WriteQualitySwitch(&bytes.Buffer{}, -1); err == nil {
		t.Error("negative rung accepted")
	}
}
