package stream

import (
	"hash/fnv"
	"testing"
	"time"

	"repro/internal/display"
	"repro/internal/faults"
	"repro/internal/frame"
	"repro/internal/obs"
)

// frameDigest hashes a decoded frame's pixels (the bit-identity check
// across faulty and fault-free runs).
func frameDigest(f *frame.Frame) uint64 {
	h := fnv.New64a()
	var b [3]byte
	for _, p := range f.Pix {
		b[0], b[1], b[2] = p.R, p.G, p.B
		h.Write(b[:])
	}
	return h.Sum64()
}

// playRecorded plays the clip recording per-frame digests and backlight
// levels.
func playRecorded(t *testing.T, client *Client, addr string) (*PlayResult, []uint64, []int) {
	t.Helper()
	var digests []uint64
	var levels []int
	client.OnFrame = func(i int, f *frame.Frame, backlight int) {
		// A resume never restarts delivery: indexes run 0, 1, 2, ...
		if i != len(digests) {
			t.Errorf("OnFrame index %d, want %d (duplicate or skipped emit)", i, len(digests))
		}
		digests = append(digests, frameDigest(f))
		levels = append(levels, backlight)
	}
	res, err := client.Play(addr, "night", 0.10)
	if err != nil {
		t.Fatal(err)
	}
	return res, digests, levels
}

// TestChaosResumeBitIdentical is the end-to-end resilience check: a
// seeded fault schedule (latency, bandwidth throttle, short writes, two
// mid-stream resets) must not change what the user sees. The client
// reconnects with backoff, resumes mid-clip via the request's
// start_frame, and the decoded frame sequence and backlight schedule come
// out bit-identical to a fault-free run.
func TestChaosResumeBitIdentical(t *testing.T) {
	_, addr := startServer(t)

	// Fault-free reference run (also measures the stream size, which
	// calibrates the reset schedule below).
	clean, wantDigests, wantLevels := playRecorded(t, &Client{Device: display.IPAQ5555()}, addr)
	if clean.Frames != 20 || clean.Retries != 0 || clean.Resumes != 0 {
		t.Fatalf("clean run: %d frames, %d retries, %d resumes", clean.Frames, clean.Retries, clean.Resumes)
	}

	// Faulty run: connection 0 is reset after ~2/3 of the stream,
	// connection 1 after another ~1/3, connection 2 runs clean. Both
	// resets land mid-stream, so the client must resume twice.
	b := int64(clean.BytesStream)
	inj := faults.NewInjector(faults.Config{
		Seed:         7,
		Latency:      200 * time.Microsecond,
		BandwidthBPS: 512 << 10,
		ShortWrites:  true,
		ResetAfter:   []int64{b * 2 / 3, b / 3},
	})
	reg := obs.NewRegistry()
	client := &Client{
		Device: display.IPAQ5555(),
		Obs:    reg,
		Dial:   inj.Dialer(nil),
		Retry:  RetryPolicy{MaxAttempts: 5, BaseDelay: 5 * time.Millisecond},
	}
	res, gotDigests, gotLevels := playRecorded(t, client, addr)

	if res.Frames != clean.Frames {
		t.Fatalf("faulty run delivered %d frames, want %d", res.Frames, clean.Frames)
	}
	if res.Retries != 2 {
		t.Errorf("retries = %d, want 2 (one per injected reset)", res.Retries)
	}
	if res.Resumes != 2 {
		t.Errorf("resumes = %d, want 2", res.Resumes)
	}
	for i := range wantDigests {
		if gotDigests[i] != wantDigests[i] {
			t.Fatalf("frame %d decoded differently under faults", i)
		}
		if gotLevels[i] != wantLevels[i] {
			t.Fatalf("frame %d backlight %d under faults, want %d", i, gotLevels[i], wantLevels[i])
		}
	}
	if res.AvgLevel != clean.AvgLevel || res.Switches != clean.Switches {
		t.Errorf("accounting diverged: avg %v/%v switches %d/%d",
			res.AvgLevel, clean.AvgLevel, res.Switches, clean.Switches)
	}
	if n := reg.Counter("stream_client_retries_total", "").Value(); n == 0 {
		t.Error("stream_client_retries_total = 0, want nonzero")
	}
	if n := reg.Counter("stream_client_resumes_total", "").Value(); n == 0 {
		t.Error("stream_client_resumes_total = 0, want nonzero")
	}
}

// TestChaosServerSideFaults exercises the -faults flag's code path: the
// server's own listener is wrapped, so every session rides a degraded
// link (latency, throttle, fragmented writes). A default client must
// still complete.
func TestChaosServerSideFaults(t *testing.T) {
	s := NewServer(testCatalog())
	s.SetLogf(quiet)
	ln := newLocalListener(t)
	s.Serve(faults.WrapListener(ln, faults.Config{
		Seed:         3,
		Latency:      200 * time.Microsecond,
		BandwidthBPS: 512 << 10,
		ShortWrites:  true,
	}))
	t.Cleanup(s.Close)

	client := &Client{Device: display.IPAQ5555()}
	res, err := client.Play(ln.Addr().String(), "night", 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames != 20 {
		t.Errorf("frames = %d, want 20", res.Frames)
	}
	if res.Retries != 0 {
		t.Errorf("retries = %d, want 0 (no resets scheduled)", res.Retries)
	}
}

// TestChaosCorruptionDoesNotPanic feeds the client a server whose writes
// randomly flip bits. The session may fail (corruption is allowed to
// exhaust the retry budget) but must never panic, and a success must
// deliver the full clip.
func TestChaosCorruptionDoesNotPanic(t *testing.T) {
	s := NewServer(testCatalog())
	s.SetLogf(quiet)
	ln := newLocalListener(t)
	s.Serve(faults.WrapListener(ln, faults.Config{Seed: 5, CorruptRate: 0.05}))
	t.Cleanup(s.Close)

	client := &Client{
		Device: display.IPAQ5555(),
		Retry:  RetryPolicy{MaxAttempts: 3, BaseDelay: 5 * time.Millisecond},
	}
	res, err := client.Play(ln.Addr().String(), "night", 0.10)
	if err == nil && res.Frames != 20 {
		t.Errorf("corrupted session reported success with %d frames", res.Frames)
	}
}
