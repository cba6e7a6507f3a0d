package benchfmt

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
Benchmark10kNodeRelay/queue=wheel         	       3	 219358627 ns/op	    416261 events/run	   1897630 events/sec	111280680 B/op	   86426 allocs/op
Benchmark10kNodeRelay/queue=heap          	       3	 496991374 ns/op	    416261 events/run	    837562 events/sec	196568520 B/op	  974841 allocs/op
BenchmarkSweepThroughput/workers=4-8      	       2	  51234567 ns/op	    800432 ns/run	      1249 runs/sec
PASS
ok  	repro	6.552s
`

func parseSample(t *testing.T) *Doc {
	t.Helper()
	doc, err := Parse(strings.NewReader(sample), "core")
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestParse(t *testing.T) {
	doc := parseSample(t)
	if doc.Schema != Schema || doc.Suite != "core" {
		t.Fatalf("header = %q/%q", doc.Schema, doc.Suite)
	}
	if doc.Goos != "linux" || doc.Goarch != "amd64" || doc.Pkg != "repro" {
		t.Fatalf("machine context = %q/%q/%q", doc.Goos, doc.Goarch, doc.Pkg)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("got %d benchmarks, want 3", len(doc.Benchmarks))
	}
	wheel := doc.Benchmarks[0]
	if wheel.Name != "10kNodeRelay/queue=wheel" || wheel.Runs != 3 {
		t.Fatalf("wheel = %+v", wheel)
	}
	if wheel.NsPerOp != 219358627 || wheel.AllocsPerOp != 86426 || wheel.BytesPerOp != 111280680 {
		t.Fatalf("wheel numbers = %+v", wheel)
	}
	if wheel.Metrics["events/sec"] != 1897630 || wheel.Metrics["events/run"] != 416261 {
		t.Fatalf("wheel metrics = %v", wheel.Metrics)
	}
	// The -8 GOMAXPROCS suffix must strip, custom units must survive.
	sweep := doc.Benchmarks[2]
	if sweep.Name != "SweepThroughput/workers=4" {
		t.Fatalf("sweep name = %q", sweep.Name)
	}
	if sweep.Metrics["runs/sec"] != 1249 {
		t.Fatalf("sweep metrics = %v", sweep.Metrics)
	}
}

func TestCompare(t *testing.T) {
	base := parseSample(t)
	cur := parseSample(t)
	// Unchanged run: every delta ~0, nothing missing.
	for _, d := range Compare(base, cur, 0.15) {
		if d.Missing || d.Delta != 0 {
			t.Fatalf("self-compare delta = %+v", d)
		}
	}

	// Regress the wheel benchmark 30% in time and 2x in allocs.
	cur.Benchmarks[0].NsPerOp *= 1.30
	cur.Benchmarks[0].AllocsPerOp *= 2
	// Drop the sweep benchmark entirely.
	cur.Benchmarks = cur.Benchmarks[:2]

	got := map[string]Delta{}
	for _, d := range Compare(base, cur, 0.15) {
		got[d.Name+"/"+d.Dimension] = d
	}
	if d := got["10kNodeRelay/queue=wheel/time"]; d.Delta < 0.29 || d.Delta > 0.31 {
		t.Fatalf("time delta = %+v", d)
	}
	if d := got["10kNodeRelay/queue=wheel/allocs"]; d.Delta < 0.99 || d.Delta > 1.01 {
		t.Fatalf("allocs delta = %+v", d)
	}
	if d := got["SweepThroughput/workers=4/"]; !d.Missing {
		t.Fatalf("missing benchmark not flagged: %+v", got)
	}
}

// TestCompareWorkloadFingerprint: a row whose events/run or entries/run
// moved measured a different workload, so Compare flags it as a "workload"
// delta while still reporting its time and allocs deltas.
func TestCompareWorkloadFingerprint(t *testing.T) {
	row := func(metrics map[string]float64) *Doc {
		return &Doc{Benchmarks: []Benchmark{{
			Name: "10kNodeRelay/queue=wheel", NsPerOp: 100, AllocsPerOp: 1000, Metrics: metrics,
		}}}
	}
	cases := []struct {
		name       string
		base, cur  map[string]float64
		wantMetric []string // fingerprint metrics expected as workload deltas
	}{
		{"unchanged", map[string]float64{"events/run": 416261}, map[string]float64{"events/run": 416261}, nil},
		{"events moved", map[string]float64{"events/run": 416261}, map[string]float64{"events/run": 655001}, []string{"events/run"}},
		{"entries moved", map[string]float64{"events/run": 10, "entries/run": 5}, map[string]float64{"events/run": 10, "entries/run": 6}, []string{"entries/run"}},
		{"both moved", map[string]float64{"events/run": 10, "entries/run": 5}, map[string]float64{"events/run": 11, "entries/run": 6}, []string{"events/run", "entries/run"}},
		{"fingerprint dropped", map[string]float64{"events/run": 10}, nil, []string{"events/run"}},
		{"baseline without fingerprint", nil, map[string]float64{"events/run": 10}, nil},
		{"non-fingerprint metric moved", map[string]float64{"events/sec": 1e6}, map[string]float64{"events/sec": 2e6}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cur := row(tc.cur)
			cur.Benchmarks[0].AllocsPerOp = 2000
			var got []string
			dims := map[string]bool{}
			for _, d := range Compare(row(tc.base), cur, 0.15) {
				dims[d.Dimension] = true
				if d.Dimension == "workload" {
					got = append(got, d.Metric)
					if d.Base != tc.base[d.Metric] || d.Current != tc.cur[d.Metric] {
						t.Errorf("%s delta = %+v", d.Metric, d)
					}
				}
			}
			if strings.Join(got, ",") != strings.Join(tc.wantMetric, ",") {
				t.Errorf("workload deltas = %v, want %v", got, tc.wantMetric)
			}
			// The allocs gate is never displaced by a workload delta.
			if !dims["allocs"] || !dims["time"] {
				t.Errorf("time/allocs deltas missing: %v", dims)
			}
		})
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	if _, err := Parse(strings.NewReader("BenchmarkBad 3 12 ns/op trailing\n"), "x"); err == nil {
		t.Fatal("odd field count accepted")
	}
	if _, err := Parse(strings.NewReader("BenchmarkBad notanumber 12 ns/op\n"), "x"); err == nil {
		t.Fatal("bad iteration count accepted")
	}
}
