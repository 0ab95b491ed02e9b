package main

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// small returns a workload shrunk to self-test scale: tiny clips, few
// of them, one warm-up.
func small(t *testing.T, name string) *workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	c := *w
	c.clipW, c.clipH, c.minFrames, c.maxFrames = 32, 24, 8, 12
	c.clips, c.warmups = 3, 1
	if c.fresh {
		c.clips = 12
	}
	return &c
}

func smallOptions(t *testing.T, trace bool) options {
	return options{seed: 5, seconds: 1, trace: trace, rounds: 1, setups: 1, quota: 6, workers: 2, workDir: t.TempDir()}
}

func readRepoSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesProgram keeps BENCHMARK.json and the program in step:
// the same workloads, and the same metric names and units in order.
func TestSpecMatchesProgram(t *testing.T) {
	spec := readRepoSpec(t)
	var specWl, progWl []string
	for _, w := range spec.Workloads {
		specWl = append(specWl, w.Name)
	}
	for _, w := range workloads {
		progWl = append(progWl, w.name)
	}
	if !reflect.DeepEqual(specWl, progWl) {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", specWl, progWl)
	}
	var specE2E, specLayer []metricDef
	for _, m := range spec.EndToEnd {
		specE2E = append(specE2E, metricDef{m.Name, m.Unit})
	}
	for _, m := range spec.PerLayer {
		specLayer = append(specLayer, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(specE2E, endToEnd) {
		t.Errorf("end-to-end metrics: BENCHMARK.json %v, program %v", specE2E, endToEnd)
	}
	if !reflect.DeepEqual(specLayer, perLayer) {
		t.Errorf("per-layer metrics: BENCHMARK.json %v, program %v", specLayer, perLayer)
	}
}

// TestEveryWorkloadPrintsEveryMetric runs each workload untraced and
// traced and checks the last output line carries every metric
// BENCHMARK.json names, with its unit, and no failed session.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	spec := readRepoSpec(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := runBench(context.Background(), smallOptions(t, trace), small(t, w.name))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			var out bytes.Buffer
			res.print(&out)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", w.name, trace, err)
			}
			if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, last.Correct, last.Attempted, last.Failed)
			}
			want := map[string]string{}
			if trace {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				m, ok := last.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s missing or unit %q, want %q", w.name, trace, name, m.Unit, unit)
				}
			}
			if len(last.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", w.name, trace, len(last.Metrics), len(want))
			}
			if trace && w.name == "peer-fill" {
				if v := res.Metrics["cluster.computes_per_key"].Value; v != 1 {
					t.Errorf("peer-fill: cluster.computes_per_key = %v, want 1", v)
				}
				if v := res.Metrics["cluster.fallback_computes"].Value; v != 0 {
					t.Errorf("peer-fill: cluster.fallback_computes = %v, want 0", v)
				}
				if v := res.Metrics["cluster.fills_per_session"].Value; v <= 0 {
					t.Errorf("peer-fill: cluster.fills_per_session = %v, want fills", v)
				}
			}
		}
	}
}

// TestWrongFrameFailsTheRun corrupts one reference frame digest and
// expects the sessions that delivered that frame to count as failed.
func TestWrongFrameFailsTheRun(t *testing.T) {
	opt := smallOptions(t, false)
	corrupted := false
	opt.refHook = func(clip string, rung int, digests []uint64) {
		if !corrupted && len(digests) > 0 {
			digests[len(digests)/2] ^= 1
			corrupted = true
		}
	}
	res, err := runBench(context.Background(), opt, small(t, "warm-hit"))
	if err != nil {
		t.Fatal(err)
	}
	if !corrupted {
		t.Fatal("no reference stream was computed")
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted reference: correct=%v failed=%d, want a failed run", res.Correct, res.Failed)
	}
}

// TestSameSeedSamePopulation runs one seed twice: the sessions played
// and the energy saved must be identical.
func TestSameSeedSamePopulation(t *testing.T) {
	var pops []uint64
	var saved []float64
	for i := 0; i < 2; i++ {
		res, err := runBench(context.Background(), smallOptions(t, false), small(t, "warm-hit"))
		if err != nil {
			t.Fatal(err)
		}
		pops = append(pops, res.population)
		saved = append(saved, res.Metrics["saved_pct"].Value)
	}
	if pops[0] != pops[1] || saved[0] != saved[1] {
		t.Fatalf("same seed: populations %x vs %x, saved_pct %v vs %v", pops[0], pops[1], saved[0], saved[1])
	}
}

// TestSeedChangesCatalog checks that the seed, and only the seed, picks
// the catalog's content.
func TestSeedChangesCatalog(t *testing.T) {
	digests := func(seed int64) []string {
		cat, err := small(t, "warm-hit").catalog(seed)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, name := range cat.names {
			out = append(out, core.SourceDigest(cat.srcs[name]))
		}
		return out
	}
	a, b, c := digests(1), digests(1), digests(2)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("seed 1 twice: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] == c[i] {
			t.Fatalf("clip %d has digest %s under seeds 1 and 2", i, a[i])
		}
	}
}

// TestSpanCoverage traces one cold-miss session: its child spans must
// cover at least 90% of the session span.
func TestSpanCoverage(t *testing.T) {
	opt := smallOptions(t, true)
	opt.quota = 1
	ph, err := measure(context.Background(), opt, small(t, "cold-miss"), newTracer(), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, pct := unaccounted(ph)
	if len(pct) != 1 {
		t.Fatalf("%d traced sessions, want 1", len(pct))
	}
	if pct[0] > 10 {
		t.Fatalf("child spans leave %.1f%% of the cold-miss session unaccounted, want at most 10%%", pct[0])
	}
}

// TestQuartilesMatchPython pins the spread arithmetic to Python's
// statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Fatalf("quartiles = %v, %v; want 1.5, 12", q1, q3)
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		b      []float64
		higher bool
		want   string
	}{
		{[]float64{100, 99, 101, 100, 100}, true, "same"},
		{[]float64{80, 81, 79, 80, 80}, true, "worse"},
		{[]float64{80, 81, 79, 80, 80}, false, "better"},
		{[]float64{60, 140, 100, 70, 130}, true, "unresolved"},
		{[]float64{130, 200, 150, 300, 131}, true, "better"},
	} {
		if got, _ := judge(base, c.b, 0.1, c.higher); got != c.want {
			t.Errorf("judge(%v, higher=%v) = %s, want %s", c.b, c.higher, got, c.want)
		}
	}
}

// TestCompareRefusesOtherCohort checks -compare will not mix results
// from different toolchains.
func TestCompareRefusesOtherCohort(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r result) string {
		path := filepath.Join(dir, name)
		if err := r.appendTo(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	c := currentCohort()
	r := result{Workload: "warm-hit", Cohort: c, Correct: true, Attempted: 1,
		Metrics: map[string]metric{"sessions_per_s": {Value: 100, Unit: "1/s"}}}
	a := write("a.jsonl", r)
	same := write("same.jsonl", r)
	r.Cohort.Go = "go0.0"
	other := write("other.jsonl", r)
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := runCompare(root, a, same, &out, &errOut); code != 0 {
		t.Fatalf("same cohort: exit %d: %s%s", code, out.String(), errOut.String())
	}
	if code := runCompare(root, a, other, &out, &errOut); code != 2 || !strings.Contains(errOut.String(), "cohorts differ") {
		t.Fatalf("other cohort: exit %d: %s", code, errOut.String())
	}
}
