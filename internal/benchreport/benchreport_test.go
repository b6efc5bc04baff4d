package benchreport

import (
	"encoding/json"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkFig2_RGAOperations     	      10	    129383 ns/op	  103093 B/op	     821 allocs/op
BenchmarkFig3_ACCDecision/exhaustive-8         	      10	    124075 ns/op	   71656 B/op	     928 allocs/op
BenchmarkFig3_ACCDecision/witness-8            	      10	     50455 ns/op	   32392 B/op	     418 allocs/op
BenchmarkACCWitness_TraceLength/steps=20/events=20   	      10	    160004 ns/op
PASS
ok  	repro	1.407s
`

func TestParse(t *testing.T) {
	rows, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	if rows[0].Group != "Fig2_RGAOperations" || rows[0].Case != "" {
		t.Errorf("row0 = %+v", rows[0])
	}
	if rows[0].BytesPerOp != 103093 || rows[0].AllocsPerOp != 821 || rows[0].Iterations != 10 {
		t.Errorf("row0 mem = %+v", rows[0])
	}
	if rows[1].Group != "Fig3_ACCDecision" || rows[1].Case != "exhaustive" {
		t.Errorf("row1 = %+v", rows[1])
	}
	if rows[3].Case != "steps=20/events=20" {
		t.Errorf("row3 = %+v", rows[3])
	}
	if rows[3].NsPerOp != 160004 {
		t.Errorf("row3 ns = %v", rows[3].NsPerOp)
	}
}

func TestMarkdown(t *testing.T) {
	rows, _ := Parse(strings.NewReader(sample))
	md := Markdown(rows)
	for _, want := range []string{
		"### Fig2_RGAOperations",
		"### Fig3_ACCDecision",
		"| exhaustive | 124.1 µs | 71656 | 928 |",
		"| witness | 50.5 µs | 32392 | 418 |",
		"| — | 129.4 µs | 103093 | 821 |",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestDuration(t *testing.T) {
	cases := []struct {
		ns   float64
		want string
	}{
		{500, "500 ns"},
		{1500, "1.5 µs"},
		{2.5e6, "2.50 ms"},
		{3.2e9, "3.20 s"},
	}
	for _, c := range cases {
		if got := Duration(c.ns); got != c.want {
			t.Errorf("Duration(%v) = %q, want %q", c.ns, got, c.want)
		}
	}
}

func TestParseIgnoresGarbage(t *testing.T) {
	rows, err := Parse(strings.NewReader("hello\nBenchmarkBad abc ns/op\nBenchmarkX 5\n"))
	if err != nil || len(rows) != 0 {
		t.Fatalf("rows = %v, err = %v", rows, err)
	}
}

func TestCompare(t *testing.T) {
	base := []Row{
		{Group: "StreamThroughput", Case: "tcp/batch=1/payload=64", NsPerOp: 1000},
		{Group: "StreamThroughput", Case: "tcp/batch=8/payload=64", NsPerOp: 100},
		{Group: "StreamThroughput", Case: "unix/batch=1/payload=64", NsPerOp: 800},
		{Group: "Old", Case: "gone", NsPerOp: 50},
	}
	cur := []Row{
		{Group: "StreamThroughput", Case: "tcp/batch=1/payload=64", NsPerOp: 1200}, // +20%: inside tolerance
		{Group: "StreamThroughput", Case: "tcp/batch=8/payload=64", NsPerOp: 140},  // +40%: regression
		{Group: "StreamThroughput", Case: "unix/batch=1/payload=64", NsPerOp: 400}, // improvement
		{Group: "StreamThroughput", Case: "unix/batch=8/payload=64", NsPerOp: 9e9}, // new case: ignored
	}
	regs := Compare(cur, base, Tolerance{NsPerOp: 0.25, AllocsPerOp: -1, BytesPerOp: -1})
	if len(regs) != 1 {
		t.Fatalf("regressions = %+v, want exactly the +40%% case", regs)
	}
	r := regs[0]
	if r.Case != "tcp/batch=8/payload=64" || r.Metric != "ns/op" || r.Base != 100 || r.Cur != 140 {
		t.Fatalf("regression = %+v", r)
	}
	if r.Ratio < 1.39 || r.Ratio > 1.41 {
		t.Fatalf("ratio = %v, want 1.4", r.Ratio)
	}
	if s := r.String(); !strings.Contains(s, "tcp/batch=8/payload=64") || !strings.Contains(s, "1.40x") {
		t.Fatalf("rendering = %q", s)
	}
	if regs := Compare(cur, base, Tolerance{NsPerOp: 0.5, AllocsPerOp: -1, BytesPerOp: -1}); len(regs) != 0 {
		t.Fatalf("tolerance 0.5 still flagged %+v", regs)
	}
}

// TestMissing: a baseline case of the gated group that the run no longer
// produces is reported, in baseline order; cases new in the run and baseline
// cases of other groups are not.
func TestMissing(t *testing.T) {
	base := []Row{
		{Group: "StreamThroughput", Case: "unix/batch=1/payload=64", NsPerOp: 800},
		{Group: "StreamThroughput", Case: "unix/quiet-p99/weights=1:1", NsPerOp: 9e5},
		{Group: "StreamThroughput", Case: "tcp/quiet-p99/weights=8:1", NsPerOp: 9e5},
		{Group: "PeerHandle", Case: "rga", NsPerOp: 700},
	}
	cur := []Row{
		{Group: "StreamThroughput", Case: "unix/batch=1/payload=64", NsPerOp: 810},
		{Group: "StreamThroughput", Case: "unix/batch=8/payload=64", NsPerOp: 300}, // new: ungated
	}
	want := []string{"StreamThroughput/unix/quiet-p99/weights=1:1", "StreamThroughput/tcp/quiet-p99/weights=8:1"}
	if got := Missing(cur, base, "StreamThroughput"); strings.Join(got, ", ") != strings.Join(want, ", ") {
		t.Fatalf("Missing = %v, want %v", got, want)
	}
	if got := Missing(cur, base, ""); len(got) != 3 || got[2] != "PeerHandle/rga" {
		t.Fatalf("Missing over every group = %v, want the two quiet rows and PeerHandle/rga", got)
	}
	if got := Missing(base, base, ""); len(got) != 0 {
		t.Fatalf("a run with every baseline case reports %v missing", got)
	}
}

func TestCompareMemoryMetrics(t *testing.T) {
	base := []Row{
		{Group: "G", Case: "pooled", NsPerOp: 100, AllocsPerOp: 0, BytesPerOp: 100},
		{Group: "G", Case: "steady", NsPerOp: 100, AllocsPerOp: 10, BytesPerOp: 1000},
		{Group: "G", Case: "rounding", NsPerOp: 100, AllocsPerOp: 4, BytesPerOp: 400},
	}
	cur := []Row{
		// A zero-alloc case growing real allocations must flag even though
		// the relative tolerance is meaningless at base 0.
		{Group: "G", Case: "pooled", NsPerOp: 100, AllocsPerOp: 6, BytesPerOp: 120},
		// +100% allocs and +100% bytes: past a 34% tolerance.
		{Group: "G", Case: "steady", NsPerOp: 100, AllocsPerOp: 20, BytesPerOp: 2000},
		// One extra alloc and a few bytes: inside the absolute graces.
		{Group: "G", Case: "rounding", NsPerOp: 100, AllocsPerOp: 5, BytesPerOp: 430},
	}
	tol := Tolerance{NsPerOp: 0.25, AllocsPerOp: 0.34, BytesPerOp: 0.34}
	regs := Compare(cur, base, tol)
	var got []string
	for _, r := range regs {
		got = append(got, r.Case+" "+r.Metric)
	}
	want := []string{"pooled allocs/op", "steady allocs/op", "steady B/op"}
	if strings.Join(got, ", ") != strings.Join(want, ", ") {
		t.Fatalf("regressions = %v, want %v", got, want)
	}
	if !strings.Contains(regs[1].String(), "allocs/op") {
		t.Fatalf("rendering lost the metric: %q", regs[1].String())
	}
	// Negative tolerances disable the memory gates outright.
	if regs := Compare(cur, base, Tolerance{NsPerOp: 0.25, AllocsPerOp: -1, BytesPerOp: -1}); len(regs) != 0 {
		t.Fatalf("negative memory tolerances still flagged memory growth: %+v", regs)
	}
}

func TestBest(t *testing.T) {
	rows := []Row{
		{Group: "A", Case: "x", NsPerOp: 300},
		{Group: "A", Case: "y", NsPerOp: 100},
		{Group: "A", Case: "x", NsPerOp: 200}, // faster rerun of A/x
		{Group: "A", Case: "y", NsPerOp: 150}, // slower rerun of A/y
	}
	best := Best(rows)
	if len(best) != 2 {
		t.Fatalf("best = %+v, want 2 rows", best)
	}
	if best[0].Case != "x" || best[0].NsPerOp != 200 {
		t.Fatalf("best[0] = %+v, want A/x at 200", best[0])
	}
	if best[1].Case != "y" || best[1].NsPerOp != 100 {
		t.Fatalf("best[1] = %+v, want A/y at 100", best[1])
	}
}

func TestWorst(t *testing.T) {
	rows := []Row{
		{Group: "A", Case: "x", NsPerOp: 300},
		{Group: "A", Case: "x", NsPerOp: 200},
		{Group: "A", Case: "y", NsPerOp: 100},
		{Group: "A", Case: "y", NsPerOp: 150},
	}
	worst := Worst(rows)
	if len(worst) != 2 || worst[0].NsPerOp != 300 || worst[1].NsPerOp != 150 {
		t.Fatalf("worst = %+v", worst)
	}
}

func TestReadJSONRoundTrip(t *testing.T) {
	rows, _ := Parse(strings.NewReader(sample))
	b, err := JSON(rows)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(rows) || back[0] != rows[0] {
		t.Fatalf("round-trip = %+v", back)
	}
	if _, err := ReadJSON([]byte("not json")); err == nil {
		t.Fatal("garbage baseline accepted")
	}
}

func TestFilterAndJSON(t *testing.T) {
	rows, _ := Parse(strings.NewReader(sample))
	only := Filter(rows, "Fig3_ACCDecision")
	if len(only) != 2 || only[0].Case != "exhaustive" || only[1].Case != "witness" {
		t.Fatalf("filter = %+v", only)
	}
	if len(Filter(rows, "no-such-group")) != 0 {
		t.Fatal("filter matched a missing group")
	}
	b, err := JSON(only)
	if err != nil {
		t.Fatal(err)
	}
	var back []Row
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("JSON output does not parse: %v", err)
	}
	if len(back) != 2 || back[0] != only[0] || back[1] != only[1] {
		t.Fatalf("JSON round-trip = %+v", back)
	}
	if b[len(b)-1] != '\n' {
		t.Fatal("JSON output must end with a newline")
	}
}
