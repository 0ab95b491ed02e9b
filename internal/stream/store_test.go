package stream

import (
	"bytes"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/annstore"
	"repro/internal/obs"
)

// computeSpanNames are the spans the annotation/compensation pipeline
// emits. A warm restart that truly serves from the persistent store must
// record none of them.
var computeSpanNames = map[string]bool{
	"annotate.luma_stats":          true,
	"annotate.scene_detect":        true,
	"annotate.build_track":         true,
	"stream.compensate_encode":     true,
	"stream.annotate_sidechannels": true,
}

func countComputeSpans(r *obs.Registry) int {
	n := 0
	for _, s := range r.RecentSpans() {
		if computeSpanNames[s.Name] {
			n++
		}
	}
	return n
}

// startStoreServer brings up a server backed by a persistent store in
// dir, with a fresh registry so span counts isolate this incarnation.
func startStoreServer(t *testing.T, dir string) (*Server, *annstore.Store, *obs.Registry, string) {
	t.Helper()
	st, err := annstore.Open(dir, annstore.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s := NewServer(testCatalog())
	s.SetLogf(quiet)
	s.SetObserver(reg)
	s.SetStore(st)
	st.SetObserver(reg, obs.L("role", "server"))
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	return s, st, reg, addr.String()
}

func fetchAnnotated(t *testing.T, addr string) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := Request{Clip: "night", Quality: 0.10, Device: "ipaq5555", Mode: ModeAnnotated}
	if err := WriteRequest(conn, req); err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty annotated stream")
	}
	return data
}

// TestWarmRestartServesFromStore is the headline persistence property:
// populate the store by serving once, restart the server process state
// (new server, new memory cache, new registry, same store directory),
// and the restarted server streams bit-identical frames without running
// the annotation pipeline at all.
func TestWarmRestartServesFromStore(t *testing.T) {
	dir := t.TempDir()

	s1, st1, reg1, addr1 := startStoreServer(t, dir)
	cold := fetchAnnotated(t, addr1)
	if n := countComputeSpans(reg1); n == 0 {
		t.Fatal("cold fetch recorded no pipeline spans; span accounting broken")
	}
	s1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, st2, reg2, addr2 := startStoreServer(t, dir)
	defer s2.Close()
	defer st2.Close()
	if st2.Len() == 0 {
		t.Fatal("store empty after restart; nothing was persisted")
	}
	warm := fetchAnnotated(t, addr2)

	if !bytes.Equal(cold, warm) {
		t.Fatalf("warm restart served different bytes: cold %d bytes, warm %d bytes",
			len(cold), len(warm))
	}
	if n := countComputeSpans(reg2); n != 0 {
		t.Errorf("warm fetch ran the pipeline: %d compute spans, want 0", n)
	}
}

// TestStoreCorruptionFallsBackToCompute flips payload bytes in every
// persisted artifact between restarts. The restarted server must notice
// (checksums), quarantine the damage, recompute, and still serve bytes
// identical to the cold run — corruption degrades to a cache miss, never
// to corrupt output.
func TestStoreCorruptionFallsBackToCompute(t *testing.T) {
	dir := t.TempDir()

	s1, st1, _, addr1 := startStoreServer(t, dir)
	cold := fetchAnnotated(t, addr1)
	s1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip the final payload byte of every artifact on disk.
	objDir := filepath.Join(dir, "objects")
	des, err := os.ReadDir(objDir)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	for _, de := range des {
		if !strings.HasSuffix(de.Name(), ".art") {
			continue
		}
		path := filepath.Join(objDir, de.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0xFF
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		corrupted++
	}
	if corrupted == 0 {
		t.Fatal("no artifacts on disk to corrupt")
	}

	s2, st2, reg2, addr2 := startStoreServer(t, dir)
	defer s2.Close()
	defer st2.Close()
	warm := fetchAnnotated(t, addr2)

	if !bytes.Equal(cold, warm) {
		t.Fatal("corrupted store produced different served bytes")
	}
	if n := countComputeSpans(reg2); n == 0 {
		t.Error("corrupt artifacts were served without recompute")
	}
	if st2.Quarantined() == 0 {
		t.Error("corrupt artifacts were not quarantined")
	}
}

// TestDamagedStoreFileNeverReachesWarmSessions damages a cached
// variant's artifact file in place — same size, bytes flipped mid-file,
// no rename — after a session has cached it. Later sessions must keep
// serving the CRC-verified wire held in memory, bit-identically; no
// send path may read the artifact file back behind the store's checks.
func TestDamagedStoreFileNeverReachesWarmSessions(t *testing.T) {
	dir := t.TempDir()
	s, st, _, addr := startStoreServer(t, dir)
	defer s.Close()
	defer st.Close()

	first := playDigests(t, addr, 0.10, nil)

	paths, err := filepath.Glob(filepath.Join(dir, "objects", "variant-*.art"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no variant artifact on disk to damage")
	}
	for _, path := range paths {
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		fi, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64)
		mid := fi.Size() / 2
		if _, err := f.ReadAt(buf, mid); err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] ^= 0xFF
		}
		if _, err := f.WriteAt(buf, mid); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}

	again := playDigests(t, addr, 0.10, nil)
	assertSameDigests(t, first, again, "session after in-place store damage")
}
