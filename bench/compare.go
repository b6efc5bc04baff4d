package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json -compare needs.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // 0 for per-layer metrics: no bound
}

// loadBenchSpec reads BENCHMARK.json from the repository root, whether the
// benchmark runs from the root or from its own directory.
func loadBenchSpec() (benchSpec, error) {
	var spec benchSpec
	var data []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if data, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return spec, fmt.Errorf("reading BENCHMARK.json: %w", err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}

// compare prints, for every workload × end-to-end metric, the median of the
// runs in b against the median of the runs in a, as a change in the
// metric's worse direction next to its bound: BENCHMARK.json's, or
// userBound for the userBounded metrics. A metric whose run-to-run spread
// (interquartile range over median) exceeds the bound on either side is
// unresolved, unless every run of b beats every run of a. It reports
// whether any resolved metric regressed beyond its bound.
func compare(pathA, pathB string, w io.Writer) (bool, error) {
	spec, err := loadBenchSpec()
	if err != nil {
		return false, err
	}
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian a\tmedian b\tworse by\tbound\tspread a\tspread b\tverdict")
	regressed := false
	metrics := spec.EndToEnd
	for _, m := range spec.PerLayer {
		if slices.Contains(userBounded, m.Name) {
			m.Bound = userBound
			metrics = append(metrics, m)
		}
	}
	for _, name := range workloadNames {
		for _, m := range metrics {
			va, vb := metricRuns(a, name, m.Name), metricRuns(b, name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := ratio(mb-ma, ma)
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case max(sa, sb) > m.Bound && allBetter(vb, va, m.Better):
				verdict = "better"
			case max(sa, sb) > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "REGRESSED"
				regressed = true
			case worse < -m.Bound:
				verdict = "better"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%+.1f%%\t%.0f%%\t%.1f%%\t%.1f%%\t%s\n",
				name, m.Name, ma, m.Unit, mb, m.Unit, 100*worse, 100*m.Bound, 100*sa, 100*sb, verdict)
		}
	}
	return regressed, tw.Flush()
}

// metricRuns collects one metric of one workload over a file's untraced,
// correct runs.
func metricRuns(rs []record, workload, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if r.Workload != workload || r.Trace || !r.Result.Correct {
			continue
		}
		if v, ok := r.Result.Metrics[metric]; ok {
			out = append(out, v.Value)
		} else if v, ok := r.Measured[metric]; ok {
			out = append(out, v)
		}
	}
	return out
}

// quartiles returns the three cut points of vs as Python's
// statistics.quantiles(vs, n=4) computes them (the "exclusive" method).
func quartiles(vs []float64) [3]float64 {
	d := slices.Clone(vs)
	slices.Sort(d)
	var q [3]float64
	if len(d) == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	m := len(d) + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(d)-1)
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}

func median(vs []float64) float64 {
	d := slices.Clone(vs)
	slices.Sort(d)
	n := len(d)
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// spread is the interquartile range as a share of the median.
func spread(vs []float64) float64 {
	q := quartiles(vs)
	return ratio(q[2]-q[0], median(vs))
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(b, a []float64, better string) bool {
	if better == "higher" {
		return slices.Min(b) > slices.Max(a)
	}
	return slices.Max(b) < slices.Min(a)
}
