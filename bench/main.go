// Command bench is the repository benchmark: it replicates real registry
// CRDTs across a 3-node in-process socket mesh and measures what users of
// the replication stack feel — how long until an operation invoked on one
// replica is visible on the others, how many operations a mesh carries, and
// what each costs in CPU, memory and wire bytes — plus how fast the ACC/XACC
// checkers decide seeded simulator traces. See README.md.
//
// Usage (from this directory, or through run.sh from the repository root):
//
//	go run .                                    # every workload, end-to-end metrics
//	go run . -workload edit -seed 7             # one workload
//	go run . -workload edit -trace 1            # per-layer metrics
//	go run . -workload edit -trace-out spans.jsonl   # ... and the spans
//	go run . -runs 5 -out a.json                # 5 seeds of every workload, recorded
//	go run . -compare a.json b.json             # medians against the bounds
//
// The last line of a single-workload run is one JSON object with the keys
// correct, attempted, failed and metrics. A run that fails a correctness
// check exits non-zero with correct=false and no metrics. The flags
// -workload, -seed, -seconds and -trace are the interface BENCHMARK.json's
// command is called with.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// Seeds recorded for gain claims: measure with defaultSeed while working,
// then re-check a claim on heldOutSeed, which no change was tuned on.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

// runSeconds is how long a run measures, BENCHMARK.json's run_seconds. Every
// workload's op count is a constant sized for it, so runs of the same
// workload always do the same work and their states reach the same size;
// -seconds accepts no other value.
const runSeconds = 15

// The whole benchmark runs on one P. On the 2-vCPU machine the numbers come
// from, identical runs of the pure-CPU verify workload varied by ±15% with
// both vCPUs in use and by ±3% with one, and the mesh workloads steadied
// too. The benchmark therefore measures per-core cost and latency; the
// receive pipeline's multi-core scaling, and lock contention that needs two
// goroutines running at once, are outside what it can see.
const procs = 1

func main() {
	runtime.GOMAXPROCS(procs)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Int64("seed", defaultSeed, fmt.Sprintf("input seed (held-out seed for re-checking claims: %d)", heldOutSeed))
	seconds := fs.Int("seconds", runSeconds, fmt.Sprintf("measured seconds; only %d, the length every workload's fixed op count is sized for", runSeconds))
	traceLevel := fs.Int("trace", 0, "1: run traced and report the per-layer metrics instead of the end-to-end ones")
	traceOut := fs.String("trace-out", "", "write the traced run's spans to this file as JSON lines (implies -trace 1)")
	runs := fs.Int("runs", 1, "with -workload all: runs of each workload, on seeds seed, seed+1, ...")
	out := fs.String("out", "", "append one JSON record per workload run to this file (the input of -compare)")
	cmp := fs.Bool("compare", false, "compare two -out files given as arguments against BENCHMARK.json's bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		regressed, err := compare(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if regressed {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || *seconds != runSeconds || *runs < 1 || (*traceLevel != 0 && *traceLevel != 1) {
		fs.Usage()
		return 2
	}
	o := runOpts{seed: *seed, trace: *traceLevel == 1 || *traceOut != ""}
	if *workload == "all" {
		return runAll(o, *runs, *out, stdout, stderr)
	}
	if !slices.Contains(workloadNames, *workload) {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	res, measured, err := runOne(*workload, o, *traceOut, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if *out != "" {
		if err := appendRecord(*out, record{Workload: *workload, Seed: o.seed, Trace: o.trace, Result: res, Measured: measured}); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the line the benchmark's caller parses.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload in this process and prints every metric it
// measured; the result carries the reported set. A traced run first measures
// the same workload untraced in a child process, so the tracing overhead can
// be reported.
func runOne(name string, o runOpts, traceOut string, stdout io.Writer) (result, map[string]float64, error) {
	untracedCPU := 0.0
	if o.trace {
		_, base, err := child(name, runOpts{seed: o.seed}, io.Discard)
		if err != nil {
			return result{}, nil, fmt.Errorf("untraced baseline: %w", err)
		}
		untracedCPU = base["harness.cpu_ms_per_kop"]
	}
	var oc *outcome
	var err error
	if name == "verify" {
		oc, err = runVerify(verifyTraces, o)
	} else {
		oc, err = runMesh(meshWorkloads[name], o)
	}
	if err != nil {
		return result{}, nil, err
	}
	res := result{Correct: len(oc.problems) == 0 && oc.failed == 0, Attempted: oc.attempted, Failed: oc.failed, Metrics: map[string]metricValue{}}
	fmt.Fprintf(stdout, "%s: seed %d, %d ops attempted, %d failed (ops_failed_ratio %g), traced %v\n",
		name, o.seed, oc.attempted, oc.failed, ratio(float64(oc.failed), float64(oc.attempted)), o.trace)
	if !res.Correct {
		for _, p := range oc.problems {
			fmt.Fprintln(stdout, "  FAILED:", p)
		}
		return res, nil, nil
	}
	values := oc.values()
	if o.trace {
		values["harness.trace_overhead_pct"] = 100 * ratio(values["harness.cpu_ms_per_kop"]-untracedCPU, untracedCPU)
		if traceOut != "" {
			if err := writeSpans(traceOut, oc.spans); err != nil {
				return result{}, nil, err
			}
		}
	}
	report := endToEnd
	if o.trace {
		report = perLayer
	}
	for _, d := range report {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		if v, ok := values[d.name]; ok {
			fmt.Fprintf(stdout, "  %-28s %14.6g %s\n", d.name, v, d.unit)
		}
	}
	return res, values, nil
}

// runAll runs every workload, each in a fresh child process so set-up
// time, memory and GC state are the workload's own.
func runAll(o runOpts, runs int, outPath string, stdout, stderr io.Writer) int {
	code := 0
	for r := 0; r < runs; r++ {
		for _, name := range workloadNames {
			ro := o
			ro.seed = o.seed + int64(r)
			res, measured, err := child(name, ro, stdout)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s seed %d: %v\n", name, ro.seed, err)
				code = 1
				continue
			}
			if outPath != "" {
				if err := appendRecord(outPath, record{Workload: name, Seed: ro.seed, Trace: ro.trace, Result: res, Measured: measured}); err != nil {
					fmt.Fprintln(stderr, "bench:", err)
					return 1
				}
			}
		}
	}
	return code
}

// child re-executes this binary on one workload, copying its report to
// echo. It returns the result from the report's last line and every metric
// the report printed.
func child(name string, o runOpts, echo io.Writer) (result, map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, nil, err
	}
	traceLevel := "0"
	if o.trace {
		traceLevel = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(o.seed, 10), "-trace", traceLevel)
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(&buf, echo)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, nil, errors.Join(runErr, fmt.Errorf("no result line: %w", err))
	}
	if runErr != nil || !res.Correct {
		return res, nil, fmt.Errorf("run failed its correctness checks: %v", runErr)
	}
	// Metric lines read "  <name> <value> <unit>".
	measured := map[string]float64{}
	for _, l := range lines[:len(lines)-1] {
		if f := strings.Fields(l); len(f) == 3 {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				measured[f[0]] = v
			}
		}
	}
	return res, measured, nil
}

// record is one line of an -out file.
type record struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Trace    bool               `json:"trace"`
	Result   result             `json:"result"`
	Measured map[string]float64 `json:"measured,omitempty"` // every metric the run printed
}

func appendRecord(path string, r record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, _ := json.Marshal(r)
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords reads an -out file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}
