// Package benchreport parses `go test -bench` output and renders it as the
// markdown tables EXPERIMENTS.md records or as the JSON arrays the nightly
// CI job archives (BENCH_*.json).
package benchreport

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Row is one parsed benchmark result.
type Row struct {
	// Group is the top-level benchmark name (without the Benchmark prefix);
	// Case is the sub-benchmark path, empty for flat benchmarks.
	Group string `json:"group"`
	Case  string `json:"case,omitempty"`
	// Iterations is the b.N the result was measured over.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the reported ns/op.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are -benchmem extras (0 when absent).
	BytesPerOp  int64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64 `json:"allocs_per_op,omitempty"`
}

// Filter returns the rows whose Group equals group.
func Filter(rows []Row, group string) []Row {
	var out []Row
	for _, r := range rows {
		if r.Group == group {
			out = append(out, r)
		}
	}
	return out
}

// Parse reads benchmark lines from r. Non-benchmark lines are ignored.
func Parse(r io.Reader) ([]Row, error) {
	var rows []Row
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || fields[2] == "" {
			continue
		}
		name := fields[0]
		// Strip the parallelism suffix (-8 etc.) if present.
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		name = strings.TrimPrefix(name, "Benchmark")
		group, cse := name, ""
		if i := strings.IndexByte(name, '/'); i >= 0 {
			group, cse = name[:i], name[i+1:]
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		var row Row
		row.Group, row.Case, row.Iterations = group, cse, iters
		for i := 2; i+1 < len(fields); i += 2 {
			val, unit := fields[i], fields[i+1]
			switch unit {
			case "ns/op":
				row.NsPerOp, _ = strconv.ParseFloat(val, 64)
			case "B/op":
				row.BytesPerOp, _ = strconv.ParseInt(val, 10, 64)
			case "allocs/op":
				row.AllocsPerOp, _ = strconv.ParseInt(val, 10, 64)
			}
		}
		if row.NsPerOp == 0 {
			continue
		}
		rows = append(rows, row)
	}
	return rows, sc.Err()
}

// Best collapses duplicate (group, case) rows — the output of
// `go test -count=N` — to each case's fastest run, preserving first-seen
// order. Min-of-N is the standard noise reduction for microbenchmarks: the
// fastest run is the one least perturbed by scheduling, so gating min
// against min compares the code, not the machine's mood.
func Best(rows []Row) []Row {
	idx := make(map[string]int, len(rows))
	var out []Row
	for _, r := range rows {
		key := r.Group + "/" + r.Case
		if i, ok := idx[key]; ok {
			if r.NsPerOp < out[i].NsPerOp {
				out[i] = r
			}
			continue
		}
		idx[key] = len(out)
		out = append(out, r)
	}
	return out
}

// Worst is Best's mirror: it collapses duplicate (group, case) rows to each
// case's slowest run. A regression baseline recorded as worst-of-N marks the
// top of the machine's noise envelope, so gating a later best-of-N against
// it only fires on slowdowns bigger than the noise — the protocol the
// transport throughput gate uses (EXPERIMENTS.md).
func Worst(rows []Row) []Row {
	idx := make(map[string]int, len(rows))
	var out []Row
	for _, r := range rows {
		key := r.Group + "/" + r.Case
		if i, ok := idx[key]; ok {
			if r.NsPerOp > out[i].NsPerOp {
				out[i] = r
			}
			continue
		}
		idx[key] = len(out)
		out = append(out, r)
	}
	return out
}

// Tolerance bounds the allowed per-metric growth over the baseline. Each
// field is fractional (0.25 = fail beyond +25%); a negative value disables
// that metric's gate entirely.
type Tolerance struct {
	// NsPerOp gates the time metric.
	NsPerOp float64
	// AllocsPerOp gates allocs/op with a one-alloc absolute grace on top of
	// the fraction: testing reports the metric floor-rounded, so a baseline
	// sitting just under an integer boundary must not flag a rounding flip.
	AllocsPerOp float64
	// BytesPerOp gates B/op with a 64-byte absolute grace on top of the
	// fraction, absorbing pool-warmup jitter on near-zero rows.
	BytesPerOp float64
}

// Regression is one benchmark case where a metric worsened past its
// tolerance against a baseline.
type Regression struct {
	Group, Case string
	// Metric names what regressed: "ns/op", "allocs/op", or "B/op".
	Metric string
	// Base and Cur are the baseline and current values of Metric; Ratio is
	// Cur/Base (+Inf when a zero baseline grew).
	Base, Cur, Ratio float64
}

func (r Regression) String() string {
	name := r.Group
	if r.Case != "" {
		name += "/" + r.Case
	}
	if r.Metric == "" || r.Metric == "ns/op" {
		return fmt.Sprintf("%s: %s -> %s (%.2fx)", name, Duration(r.Base), Duration(r.Cur), r.Ratio)
	}
	return fmt.Sprintf("%s: %.0f -> %.0f %s (%.2fx)", name, r.Base, r.Cur, r.Metric, r.Ratio)
}

// Compare gates cur against base, one Regression per metric that grew past
// its tolerance (ns/op first for a given case). Cases only in one input are
// ignored here: a new benchmark stays ungated, and Missing reports the
// baseline cases cur lost. Integer metrics (allocs/op,
// B/op) gate against a zero baseline too: a zero-alloc case must stay
// zero-alloc, modulo the absolute graces documented on Tolerance.
func Compare(cur, base []Row, tol Tolerance) []Regression {
	baseline := make(map[string]Row, len(base))
	for _, r := range base {
		baseline[r.Group+"/"+r.Case] = r
	}
	ratio := func(cur, base float64) float64 {
		if base <= 0 {
			return math.Inf(1)
		}
		return cur / base
	}
	var out []Regression
	for _, r := range cur {
		b, ok := baseline[r.Group+"/"+r.Case]
		if !ok {
			continue
		}
		if tol.NsPerOp >= 0 && b.NsPerOp > 0 && r.NsPerOp > b.NsPerOp*(1+tol.NsPerOp) {
			out = append(out, Regression{
				Group: r.Group, Case: r.Case, Metric: "ns/op",
				Base: b.NsPerOp, Cur: r.NsPerOp, Ratio: r.NsPerOp / b.NsPerOp,
			})
		}
		if tol.AllocsPerOp >= 0 && float64(r.AllocsPerOp) > float64(b.AllocsPerOp)*(1+tol.AllocsPerOp)+1 {
			out = append(out, Regression{
				Group: r.Group, Case: r.Case, Metric: "allocs/op",
				Base: float64(b.AllocsPerOp), Cur: float64(r.AllocsPerOp),
				Ratio: ratio(float64(r.AllocsPerOp), float64(b.AllocsPerOp)),
			})
		}
		if tol.BytesPerOp >= 0 && float64(r.BytesPerOp) > float64(b.BytesPerOp)*(1+tol.BytesPerOp)+64 {
			out = append(out, Regression{
				Group: r.Group, Case: r.Case, Metric: "B/op",
				Base: float64(b.BytesPerOp), Cur: float64(r.BytesPerOp),
				Ratio: ratio(float64(r.BytesPerOp), float64(b.BytesPerOp)),
			})
		}
	}
	return out
}

// Missing returns, as "group/case" names in baseline order, the cases of
// base in group (every group when group is empty) that cur does not contain:
// a deleted or renamed benchmark, which would otherwise drop out of the gate
// unnoticed.
func Missing(cur, base []Row, group string) []string {
	have := make(map[string]bool, len(cur))
	for _, r := range cur {
		have[r.Group+"/"+r.Case] = true
	}
	var out []string
	for _, r := range base {
		if key := r.Group + "/" + r.Case; (group == "" || r.Group == group) && !have[key] {
			out = append(out, key)
		}
	}
	return out
}

// ReadJSON loads a BENCH_*.json array previously written by JSON.
func ReadJSON(b []byte) ([]Row, error) {
	var rows []Row
	if err := json.Unmarshal(b, &rows); err != nil {
		return nil, fmt.Errorf("benchreport: bad baseline JSON: %w", err)
	}
	return rows, nil
}

// Duration renders nanoseconds human-readably (ns, µs, ms, s).
func Duration(ns float64) string {
	switch {
	case ns < 1e3:
		return fmt.Sprintf("%.0f ns", ns)
	case ns < 1e6:
		return fmt.Sprintf("%.1f µs", ns/1e3)
	case ns < 1e9:
		return fmt.Sprintf("%.2f ms", ns/1e6)
	default:
		return fmt.Sprintf("%.2f s", ns/1e9)
	}
}

// JSON renders the rows as an indented JSON array — the machine-readable
// form checked in as BENCH_*.json and uploaded by the nightly CI job, so
// regressions can be diffed across commits.
func JSON(rows []Row) ([]byte, error) {
	b, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Markdown renders the rows as one markdown table per group, preserving the
// input order.
func Markdown(rows []Row) string {
	var b strings.Builder
	var group string
	withMem := false
	for _, r := range rows {
		if r.BytesPerOp > 0 || r.AllocsPerOp > 0 {
			withMem = true
			break
		}
	}
	for _, r := range rows {
		if r.Group != group {
			group = r.Group
			fmt.Fprintf(&b, "\n### %s\n\n", group)
			if withMem {
				b.WriteString("| case | time/op | B/op | allocs/op |\n|---|---|---|---|\n")
			} else {
				b.WriteString("| case | time/op |\n|---|---|\n")
			}
		}
		cse := r.Case
		if cse == "" {
			cse = "—"
		}
		if withMem {
			fmt.Fprintf(&b, "| %s | %s | %d | %d |\n", cse, Duration(r.NsPerOp), r.BytesPerOp, r.AllocsPerOp)
		} else {
			fmt.Fprintf(&b, "| %s | %s |\n", cse, Duration(r.NsPerOp))
		}
	}
	return strings.TrimPrefix(b.String(), "\n")
}
