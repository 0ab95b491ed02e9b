package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/annstore"
	"repro/internal/display"
	"repro/internal/frame"
	"repro/internal/stream"
)

// TestDrainOnSIGTERM is the end-to-end shutdown smoke test: streamd is
// built and started, a client opens a stream, SIGTERM lands mid-stream,
// /readyz flips not-ready immediately, the in-flight stream completes,
// and the process exits 0 after logging the drained event.
func TestDrainOnSIGTERM(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "streamd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// Server-side bandwidth throttle keeps the session genuinely in
	// flight when the signal arrives.
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0",
		"-w", "32", "-h", "24", "-fps", "8", "-scale", "0.25",
		"-drain-timeout", "30s", "-faults", "bw=262144")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })

	// Collect stdout lines as they arrive.
	var outMu sync.Mutex
	var lines []string
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			outMu.Lock()
			lines = append(lines, sc.Text())
			outMu.Unlock()
		}
	}()
	// waitLine returns the first line for which match returns a non-empty
	// string.
	waitLine := func(what string, match func(string) string) string {
		deadline := time.Now().Add(15 * time.Second)
		for {
			outMu.Lock()
			for _, l := range lines {
				if got := match(l); got != "" {
					outMu.Unlock()
					return got
				}
			}
			outMu.Unlock()
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s in streamd output: %v", what, lines)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	debugAddr := waitLine("debug endpoint", func(l string) string {
		if rest, ok := strings.CutPrefix(l, "debug endpoint on http://"); ok {
			return strings.TrimSuffix(rest, "/metrics")
		}
		return ""
	})
	addr := waitLine("serve address", func(l string) string {
		if strings.HasPrefix(l, "serving ") {
			f := strings.Fields(l)
			return f[len(f)-1]
		}
		return ""
	})
	clip := waitLine("a clip name", func(l string) string {
		if strings.HasPrefix(l, "  ") {
			return strings.TrimSpace(l)
		}
		return ""
	})

	// Before the signal the process reports ready.
	resp, err := http.Get("http://" + debugAddr + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/readyz = %d before shutdown, want 200", resp.StatusCode)
	}

	firstFrame := make(chan struct{})
	var once sync.Once
	client := &stream.Client{Device: display.IPAQ5555()}
	client.OnFrame = func(int, *frame.Frame, int) { once.Do(func() { close(firstFrame) }) }
	type playOut struct {
		res *stream.PlayResult
		err error
	}
	playCh := make(chan playOut, 1)
	go func() {
		res, err := client.Play(addr, clip, 0.10)
		playCh <- playOut{res, err}
	}()

	select {
	case <-firstFrame:
	case out := <-playCh:
		t.Fatalf("stream ended before the signal could land mid-stream: %+v %v", out.res, out.err)
	case <-time.After(15 * time.Second):
		t.Fatal("no frame arrived")
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	// Readiness flips not-ready immediately, while the stream drains.
	flipDeadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get("http://" + debugAddr + "/readyz")
		if err == nil {
			code := resp.StatusCode
			resp.Body.Close()
			if code == http.StatusServiceUnavailable {
				break
			}
		}
		if time.Now().After(flipDeadline) {
			t.Fatal("/readyz never flipped to 503 after SIGTERM")
		}
		time.Sleep(20 * time.Millisecond)
	}

	out := <-playCh
	if out.err != nil {
		t.Fatalf("in-flight stream failed during drain: %v", out.err)
	}
	if out.res.Frames == 0 {
		t.Fatal("drained stream delivered no frames")
	}

	// Read stdout to EOF before Wait: Wait closes the pipe, and any line
	// still unread (msg=drained is among the last) would be lost.
	select {
	case <-scanDone:
	case <-time.After(30 * time.Second):
		t.Fatal("streamd output never reached EOF after the drain")
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("streamd exited with %v, want 0 after a clean drain", err)
	}
	outMu.Lock()
	all := strings.Join(lines, "\n")
	outMu.Unlock()
	if !strings.Contains(all, "msg=drained") {
		t.Errorf("output missing %q:\n%s", "msg=drained", all)
	}
}

// TestAddressListValidation is the startup-hygiene regression: a node
// configured to proxy to itself, to a double-weighted upstream, or to
// shard with a malformed peer list must refuse to start with exit 2
// and a diagnostic — never open a socket and route traffic in a loop.
func TestAddressListValidation(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "streamd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	cases := []struct {
		name string
		args []string
		want string
	}{
		{
			name: "duplicate upstream",
			args: []string{"-addr", "127.0.0.1:7500", "-upstreams", "127.0.0.1:7501,127.0.0.1:7501"},
			want: "duplicate address",
		},
		{
			name: "duplicate upstream via localhost alias",
			args: []string{"-addr", "127.0.0.1:7500", "-upstreams", "localhost:7501,127.0.0.1:7501"},
			want: "duplicate address",
		},
		{
			name: "proxying to own listen address",
			args: []string{"-addr", "127.0.0.1:7500", "-upstreams", "127.0.0.1:7500"},
			want: "own listen address",
		},
		{
			name: "peer list contains self",
			args: []string{"-addr", "127.0.0.1:7500", "-peers", "localhost:7500,127.0.0.1:7501"},
			want: "own listen address",
		},
		{
			name: "duplicate peer",
			args: []string{"-addr", "127.0.0.1:7500", "-peers", "127.0.0.1:7501,127.0.0.1:7501"},
			want: "duplicate address",
		},
		{
			name: "peer is not host:port",
			args: []string{"-addr", "127.0.0.1:7500", "-peers", "not-an-address"},
			want: "not host:port",
		},
		{
			name: "wildcard addr with peers but no advertise",
			args: []string{"-addr", ":7500", "-peers", "127.0.0.1:7501"},
			want: "requires -advertise",
		},
		{
			name: "proxy-of is an unknown flag",
			args: []string{"-addr", "127.0.0.1:7500", "-proxy-of", "127.0.0.1:7501"},
			want: "flag provided but not defined: -proxy-of",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(bin, tc.args...).CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("expected a validation exit, got err=%v, output:\n%s", err, out)
			}
			if code := ee.ExitCode(); code != 2 {
				t.Fatalf("exit %d, want 2; output:\n%s", code, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Fatalf("stderr missing %q:\n%s", tc.want, out)
			}
		})
	}

	// The sanity inverse: a clean peer list with -advertise starts up
	// (and a clean duplicate-free upstream list is covered by
	// TestDrainOnSIGTERM's normal startup).
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0",
		"-advertise", "127.0.0.1:7600", "-peers", "127.0.0.1:7601")
	buf := &lockedBuffer{}
	cmd.Stdout = buf
	cmd.Stderr = buf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(buf.String(), "serving ") {
		if time.Now().After(deadline) {
			t.Fatalf("clustered node never started serving:\n%s", buf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !strings.Contains(buf.String(), "cluster_join") {
		t.Errorf("startup log missing cluster_join event:\n%s", buf.String())
	}
}

// lockedBuffer collects subprocess output written from the exec
// package's copier goroutine while the test polls it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestFsckMode is the end-to-end check of `streamd -fsck`: a clean store
// exits 0, a store with a corrupted artifact exits 1 while quarantining
// it, and a second run over the now-repaired store exits 0 again.
func TestFsckMode(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "streamd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	dir := t.TempDir()
	st, err := annstore.Open(dir, annstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := st.Put(annstore.Key{Kind: "track", Digest: fmt.Sprintf("fsck%d", i)},
			bytes.Repeat([]byte{byte(i)}, 256)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	run := func() (string, int) {
		out, err := exec.Command(bin, "-store-dir", dir, "-fsck").CombinedOutput()
		code := 0
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("running fsck: %v\n%s", err, out)
		}
		return string(out), code
	}

	if out, code := run(); code != 0 || !strings.Contains(out, "store is clean") {
		t.Fatalf("fsck on clean store: exit %d, output:\n%s", code, out)
	}

	// Corrupt one artifact's payload on disk.
	des, err := os.ReadDir(filepath.Join(dir, "objects"))
	if err != nil {
		t.Fatal(err)
	}
	corrupted := false
	for _, de := range des {
		if !strings.HasSuffix(de.Name(), ".art") {
			continue
		}
		path := filepath.Join(dir, "objects", de.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0xFF
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		corrupted = true
		break
	}
	if !corrupted {
		t.Fatal("no artifacts on disk to corrupt")
	}

	out, code := run()
	if code != 1 {
		t.Fatalf("fsck on corrupt store: exit %d, want 1; output:\n%s", code, out)
	}
	if !strings.Contains(out, "quarantin") {
		t.Fatalf("fsck output does not mention quarantine:\n%s", out)
	}

	// The corrupt entry is now quarantined, so a re-run is clean.
	if out, code := run(); code != 0 {
		t.Fatalf("fsck after quarantine: exit %d, output:\n%s", code, out)
	}

	// And the quarantined file was preserved for inspection, not deleted.
	qdes, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil || len(qdes) == 0 {
		t.Fatalf("quarantine dir: %v entries, err %v", len(qdes), err)
	}
}
