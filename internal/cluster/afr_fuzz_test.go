package cluster

import (
	"bytes"
	"errors"
	"testing"
)

// The AFR1 framing faces other cluster nodes, which after a partition
// or version skew can present arbitrarily desynchronised bytes. The
// fuzzers hold the two parser invariants the cluster's safety rests on:
// a hostile frame can fail a fetch but never panic, over-allocate, or —
// for responses — hand back bytes whose checksum was not verified.

func FuzzReadFetchRequest(f *testing.F) {
	seed := func(req FetchRequest) {
		var buf bytes.Buffer
		if WriteFetchRequest(&buf, req) == nil {
			f.Add(buf.Bytes())
		}
	}
	seed(FetchRequest{Kind: "track", Digest: "deadbeef", Quality: -1, Clip: "sunset"})
	seed(FetchRequest{Kind: "variant", Digest: "deadbeef", Suffix: "+g10q3", Quality: 3, Device: "oled", Clip: "x"})
	seed(FetchRequest{Kind: "levels", Digest: "d", Device: "phone"})
	f.Add([]byte("AFR1"))                // magic only
	f.Add([]byte("AFR1\x05trac"))        // truncated kind
	f.Add([]byte("AFR1\xfftrack"))       // kind length over bound
	f.Add([]byte("AFR1\x01k\xff\xffd"))  // digest length over bound
	f.Add([]byte("RQS4\x80\x00\x03abc")) // a client request, not a fetch
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ReadFetchRequest(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrFraming) {
				t.Fatalf("non-framing parse error: %v", err)
			}
			return
		}
		// Parsed fields must respect the documented bounds — a frame
		// that slips past them could make the owner allocate unbounded.
		if len(req.Kind) == 0 || len(req.Kind) > maxKindLen ||
			len(req.Digest) == 0 || len(req.Digest) > maxDigestLen ||
			len(req.Suffix) > maxSuffixLen ||
			len(req.Device) > 255 || len(req.Clip) > 255 ||
			req.Quality < -1 || req.Quality > 0xFFFE {
			t.Fatalf("parsed request violates bounds: %+v", req)
		}
		// Round trip: what parses must re-encode to bytes that parse to
		// the same request (the two nodes agree on the wire form).
		var buf bytes.Buffer
		if err := WriteFetchRequest(&buf, req); err != nil {
			t.Fatalf("parsed request does not re-encode: %v", err)
		}
		again, err := ReadFetchRequest(&buf)
		if err != nil {
			t.Fatalf("re-encoded request does not parse: %v", err)
		}
		if again != req {
			t.Fatalf("round trip drift: %+v != %+v", again, req)
		}
	})
}

func FuzzReadFetchResponse(f *testing.F) {
	okFrame := func(payload []byte) []byte {
		var buf bytes.Buffer
		WriteFetchResponse(&buf, payload)
		return buf.Bytes()
	}
	f.Add(okFrame([]byte("artifact")))
	f.Add(okFrame(nil))
	corrupt := okFrame([]byte("artifact bytes"))
	corrupt[8] ^= 0x01 // payload bit flip: checksum must catch it
	f.Add(corrupt)
	var errBuf bytes.Buffer
	WriteFetchError(&errBuf, CodeNotFound, "cold owner")
	f.Add(errBuf.Bytes())
	errBuf.Reset()
	WriteFetchError(&errBuf, CodeUnavailable, "draining")
	f.Add(errBuf.Bytes())
	f.Add([]byte("AFO1\xff\xff\xff\xff"))   // hostile length
	f.Add([]byte("AFO1\x00\x00\x00\x04ab")) // truncated payload
	f.Add([]byte("AFE1\x01\x00\x05no"))     // truncated error message
	f.Add([]byte("ERR1\x00\x03bad"))        // wrong protocol family
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxBytes = 1 << 20
		payload, err := ReadFetchResponse(bytes.NewReader(data), maxBytes)
		if err != nil {
			// Every failure is one of the typed sentinels the fill path
			// branches on; an untyped error would dodge the breaker and
			// metrics bucketing.
			if !errors.Is(err, ErrFraming) && !errors.Is(err, ErrChecksum) &&
				!errors.Is(err, ErrNotFound) && !errors.Is(err, ErrPeerUnavailable) {
				t.Fatalf("untyped response error: %v", err)
			}
			return
		}
		if int64(len(payload)) > maxBytes {
			t.Fatalf("payload %d exceeds the %d budget", len(payload), maxBytes)
		}
		// An accepted payload is exactly one the writer would frame: the
		// checksum verified, so re-encoding reproduces the consumed
		// prefix byte for byte (no wrong-bytes acceptance).
		var buf bytes.Buffer
		if err := WriteFetchResponse(&buf, payload); err != nil {
			t.Fatalf("accepted payload does not re-encode: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data[:buf.Len()]) {
			t.Fatal("accepted frame is not the writer's encoding")
		}
	})
}
