// Command bench is the repository benchmark. It generates a seeded clip
// catalog, boots in-process stream servers (with stores, a cluster or a
// proxy, as the workload asks) on loopback, drives them with a closed
// loop of playback sessions, checks every delivered frame against a
// standalone reference server, and prints the end-to-end metrics named
// in BENCHMARK.json — or, with -trace 1, the per-layer metrics of a
// traced run. README.md describes the workloads and metrics.
//
// Run it from the repository root with
//
//	bash bench/run.sh --workload warm-hit --seed 1 --seconds 10 --trace 0
//
// or from this directory with go run . and the same flags.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	opt := options{setups: 3, workers: runtime.NumCPU(), log: stderr}
	name := fs.String("workload", "warm-hit", "workload to run: "+strings.Join(names, ", "))
	fs.Int64Var(&opt.seed, "seed", 1, "seed of the workload's catalog and session draw")
	fs.Float64Var(&opt.seconds, "seconds", 10, "length of the timed phase, in seconds")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	out := fs.String("out", "", "append the run's result as one JSON line to this file")
	compare := fs.Bool("compare", false, "compare two -out files, given as arguments A and B")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root := findRoot()
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		return runCompare(root, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if opt.seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	wl, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	opt.trace = *trace == 1
	// Rounds of about a second.
	opt.rounds = max(1, int(math.Round(opt.seconds)))
	build := filepath.Join(root, ".bench_build")
	opt.workDir = filepath.Join(build, fmt.Sprintf("work-%d", os.Getpid()))
	if opt.trace {
		opt.spansOut = filepath.Join(build, "spans", fmt.Sprintf("%s-seed%d.jsonl", wl.name, opt.seed))
	}
	defer os.RemoveAll(opt.workDir)

	res, err := runBench(context.Background(), opt, wl)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	res.print(stdout)
	if *out != "" {
		if err := res.appendTo(*out); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// findRoot returns the nearest directory at or above the working
// directory that holds BENCHMARK.json (the working directory if none).
func findRoot() string {
	wd, err := os.Getwd()
	if err != nil {
		return "."
	}
	for dir := wd; ; dir = filepath.Dir(dir) {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir
		}
		if filepath.Dir(dir) == dir {
			return wd
		}
	}
}

// metric is one reported number; n is how many samples it summarises.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

// result is one run's outcome: the last line of output, plus the cohort
// it was measured in for -out.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Cohort    cohort            `json:"cohort"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// population fingerprints the sessions the first phase played.
	population uint64
	notes      []string
}

func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "bench: %s seed %d: %d sessions attempted, %d failed\n", r.Workload, r.Seed, r.Attempted, r.Failed)
	for _, note := range r.notes {
		fmt.Fprintf(w, "bench: %s\n", note)
	}
	names := endToEnd
	if r.Trace {
		names = perLayer
	}
	for _, d := range names {
		m := r.Metrics[d.name]
		fmt.Fprintf(w, "metric %-40s %14.6g %-6s n=%d\n", d.name, m.Value, m.Unit, m.n)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	fmt.Fprintf(w, "%s\n", line)
}

func (r *result) appendTo(path string) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runBench measures one workload. Untraced, it reports the end-to-end
// metrics. Traced, it first repeats the untraced measurement (for the
// tracing overhead), then measures again with every seam traced and
// replays each layer on the workload's own inputs; the two timed phases
// share the run's seconds and rounds.
func runBench(ctx context.Context, opt options, wl *workload) (*result, error) {
	res := &result{Workload: wl.name, Seed: opt.seed, Trace: opt.trace, Cohort: currentCohort(), Correct: true}
	if !opt.trace {
		ph, err := measure(ctx, opt, wl, nil, nil)
		if err != nil {
			return nil, err
		}
		res.add(ph)
		res.Metrics = endToEndMetrics(ph)
		ttff := ph.summary.ttffMs
		res.notes = append(res.notes, fmt.Sprintf("ttff_p99_ms %.4g ms (n=%d; not gated: too few sessions lie beyond it)",
			quantile(ttff, 0.99), len(ttff)))
		return res, nil
	}
	opt.setups = 1
	opt.seconds /= 2
	opt.rounds = max(1, opt.rounds/2)
	base, err := measure(ctx, opt, wl, nil, nil)
	if err != nil {
		return nil, err
	}
	res.add(base)
	tr := newTracer()
	var layers map[string]metric
	traced, err := measure(ctx, opt, wl, tr, func(ph *phase) error {
		var err error
		layers, err = perLayerMetrics(ctx, ph, res.Cohort)
		return err
	})
	if err != nil {
		return nil, err
	}
	res.add(traced)
	untracedRate := sessionRate(base)
	layers["trace.overhead_pct"] = metric{
		Value: 100 * (untracedRate - sessionRate(traced)) / untracedRate,
		Unit:  "%", n: len(traced.rounds),
	}
	res.Metrics = layers
	if opt.spansOut != "" {
		if err := os.MkdirAll(filepath.Dir(opt.spansOut), 0o755); err != nil {
			return nil, err
		}
		if err := tr.writeJSONL(opt.spansOut); err != nil {
			return nil, err
		}
		res.notes = append(res.notes, "spans written to "+opt.spansOut)
	}
	return res, nil
}

// add folds a phase's sessions into the run's counts.
func (r *result) add(ph *phase) {
	s := ph.summary
	if s.attempted == 0 {
		r.Correct = false
		r.notes = append(r.notes, "no session was played")
	}
	if s.failed > 0 {
		r.Correct = false
	}
	r.Attempted += s.attempted
	r.Failed += s.failed
	if r.population == 0 {
		r.population = s.population
	}
	if ph.exhausted {
		r.notes = append(r.notes, "catalog exhausted before the timed phase ended")
	}
}
