package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readResults reads a file of results appended by -out, keeping the
// untraced ones.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// sameCohort refuses results measured with another toolchain, platform
// or processor count, or on a machine whose calibration kernel ran more
// than 25% faster or slower.
func sameCohort(a, b []result) error {
	if len(a) == 0 || len(b) == 0 {
		return fmt.Errorf("both sides need untraced results")
	}
	ref := a[0].Cohort
	var calA, calB []float64
	for i, side := range [][]result{a, b} {
		for _, r := range side {
			c := r.Cohort
			if c.Go != ref.Go || c.OS != ref.OS || c.Arch != ref.Arch || c.NProc != ref.NProc || c.GOMAXPROCS != ref.GOMAXPROCS {
				return fmt.Errorf("cohorts differ: %s %s/%s nproc=%d gomaxprocs=%d vs %s %s/%s nproc=%d gomaxprocs=%d",
					ref.Go, ref.OS, ref.Arch, ref.NProc, ref.GOMAXPROCS, c.Go, c.OS, c.Arch, c.NProc, c.GOMAXPROCS)
			}
			if i == 0 {
				calA = append(calA, c.DCTNs)
			} else {
				calB = append(calB, c.DCTNs)
			}
		}
	}
	if ma, mb := median(calA), median(calB); math.Abs(mb-ma)/ma > 0.25 {
		return fmt.Errorf("calibration kernel %.0f ns vs %.0f ns: not the same machine speed", ma, mb)
	}
	return nil
}

// judge classifies B against A for one metric: "unresolved" when either
// side's run-to-run spread exceeds the bound (unless every B run beats
// every A run), else "worse" or "better" when the medians differ by more
// than the bound, else "same".
func judge(a, b []float64, bound float64, higherBetter bool) (verdict string, change float64) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		change = (mb - ma) / math.Abs(ma)
	}
	gain := change
	if !higherBetter {
		gain = -change
	}
	sa, sb := sortedCopy(a), sortedCopy(b)
	allBetter := (higherBetter && sb[0] > sa[len(sa)-1]) || (!higherBetter && sb[len(sb)-1] < sa[0])
	switch {
	case math.Max(spread(a), spread(b)) > bound:
		if allBetter {
			return "better", change
		}
		return "unresolved", change
	case gain < -bound:
		return "worse", change
	case gain > bound:
		return "better", change
	}
	return "same", change
}

// runCompare prints one row per workload and end-to-end metric, then one
// verdict row per workload, and exits 1 when any metric is worse or
// unresolved.
func runCompare(root, pathA, pathB string, stdout, stderr io.Writer) int {
	spec, err := readSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	if err := sameCohort(a, b); err != nil {
		fmt.Fprintf(stderr, "bench: refusing to compare: %v\n", err)
		return 2
	}
	values := func(rs []result, wl, metric string) []float64 {
		var out []float64
		for _, r := range rs {
			if m, ok := r.Metrics[metric]; ok && r.Workload == wl {
				out = append(out, m.Value)
			}
		}
		return out
	}
	code := 0
	var rows []string
	fmt.Fprintf(stdout, "%-11s %-21s %12s %12s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "median A", "median B", "change", "sprd A", "sprd B", "bound", "verdict")
	for _, w := range spec.Workloads {
		row := fmt.Sprintf("%-11s", w.Name)
		for _, m := range spec.EndToEnd {
			va, vb := values(a, w.Name, m.Name), values(b, w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict, change := judge(va, vb, m.Bound, m.Better == "higher")
			if verdict == "worse" || verdict == "unresolved" {
				code = 1
			}
			row += fmt.Sprintf(" %s=%s", m.Name, verdict)
			fmt.Fprintf(stdout, "%-11s %-21s %12.5g %12.5g %+7.1f%% %6.1f%% %6.1f%% %5.1f%%  %s\n",
				w.Name, m.Name, median(va), median(vb), 100*change, 100*spread(va), 100*spread(vb), 100*m.Bound, verdict)
		}
		rows = append(rows, row)
	}
	fmt.Fprintln(stdout)
	for _, row := range rows {
		fmt.Fprintln(stdout, row)
	}
	return code
}
