// Package benchfmt parses `go test -bench` output into the quanto-bench/v1
// JSON schema and diffs two such documents. It backs cmd/benchjson and the
// CI bench-compare step; the committed BENCH_*.json trajectory files at the
// repo root are Doc values serialized with two-space indentation.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Schema is the document identifier; bump it if a field changes meaning.
const Schema = "quanto-bench/v1"

// Doc is one benchmark suite's results on one machine.
type Doc struct {
	Schema string `json:"schema"`
	Suite  string `json:"suite"`
	// Machine context from the bench header, so a trajectory entry is
	// comparable only against runs it actually matches.
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	Pkg    string `json:"pkg,omitempty"`

	Benchmarks []Benchmark `json:"benchmarks"`
}

// Benchmark is one result line: a (sub-)benchmark and its per-op numbers.
type Benchmark struct {
	// Name has the leading "Benchmark" stripped: "10kNodeRelay/queue=wheel".
	Name string `json:"name"`
	Runs int64  `json:"runs"`

	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`

	// Metrics carries every custom b.ReportMetric unit verbatim:
	// "events/sec", "runs/sec", "ns/run", ...
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Parse reads `go test -bench` output and returns a Doc tagged with suite.
// Non-benchmark lines (PASS, ok, test log output) are ignored.
func Parse(r io.Reader, suite string) (*Doc, error) {
	doc := &Doc{Schema: Schema, Suite: suite}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			doc.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			doc.Pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			b, err := parseLine(line)
			if err != nil {
				return nil, fmt.Errorf("benchfmt: %w in line %q", err, line)
			}
			doc.Benchmarks = append(doc.Benchmarks, b)
		}
	}
	return doc, sc.Err()
}

// parseLine decodes one result line:
//
//	BenchmarkName-8  3  219358627 ns/op  416261 events/run  111280680 B/op  86426 allocs/op
//
// i.e. name, iteration count, then (value, unit) pairs.
func parseLine(line string) (Benchmark, error) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		return Benchmark{}, fmt.Errorf("malformed result")
	}
	name := strings.TrimPrefix(f[0], "Benchmark")
	// Strip the -GOMAXPROCS suffix testing appends outside -cpu=1.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	runs, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, fmt.Errorf("bad iteration count %q", f[1])
	}
	b := Benchmark{Name: name, Runs: runs}
	for i := 2; i+1 < len(f); i += 2 {
		val, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, fmt.Errorf("bad value %q", f[i])
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			b.NsPerOp = val
		case "B/op":
			b.BytesPerOp = val
		case "allocs/op":
			b.AllocsPerOp = val
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = val
		}
	}
	return b, nil
}

// Load reads a Doc previously written by cmd/benchjson.
func Load(path string) (*Doc, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc Doc
	if err := json.Unmarshal(buf, &doc); err != nil {
		return nil, fmt.Errorf("benchfmt: %s: %w", path, err)
	}
	if doc.Schema != Schema {
		return nil, fmt.Errorf("benchfmt: %s: schema %q, want %q", path, doc.Schema, Schema)
	}
	return &doc, nil
}

// fingerprints are the custom metrics that identify a benchmark's workload
// rather than measure it: deterministic counts that only move when the
// simulated work itself changes (a re-derived placement, a new event
// source). A row whose fingerprint differs from the baseline's is measuring
// a different workload, so its time and allocs deltas say nothing about the
// code until the baseline is re-recorded.
var fingerprints = []string{"events/run", "entries/run"}

// Delta is one compared dimension of one benchmark. Delta is the relative
// change versus the baseline: +0.20 means 20% worse (slower, more allocs).
type Delta struct {
	Name string
	// Dimension is "time", "allocs", or "workload" (a fingerprint metric,
	// named by Metric, that differs from the baseline).
	Dimension string
	Metric    string
	Base      float64
	Current   float64
	Delta     float64
	Missing   bool // baseline benchmark absent from the current run
}

// Compare diffs current against base on the regression-relevant dimensions.
// Benchmarks only present in current are new coverage, not regressions, and
// are skipped; baseline entries missing from current are flagged so a
// silently deleted benchmark cannot hide a regression. Every fingerprint
// metric the baseline row carries must match exactly; each one that does
// not yields a "workload" delta, reported next to (never instead of) the
// time and allocs deltas. The threshold is not applied here — every delta
// is returned and the caller picks severity.
func Compare(base, current *Doc, threshold float64) []Delta {
	cur := map[string]Benchmark{}
	for _, b := range current.Benchmarks {
		cur[b.Name] = b
	}
	var out []Delta
	for _, bb := range base.Benchmarks {
		cb, ok := cur[bb.Name]
		if !ok {
			out = append(out, Delta{Name: bb.Name, Missing: true})
			continue
		}
		for _, unit := range fingerprints {
			want, ok := bb.Metrics[unit]
			if !ok || cb.Metrics[unit] == want {
				continue
			}
			out = append(out, Delta{
				Name: bb.Name, Dimension: "workload", Metric: unit,
				Base: want, Current: cb.Metrics[unit],
				Delta: cb.Metrics[unit]/want - 1,
			})
		}
		if bb.NsPerOp > 0 {
			out = append(out, Delta{
				Name: bb.Name, Dimension: "time",
				Base: bb.NsPerOp, Current: cb.NsPerOp,
				Delta: cb.NsPerOp/bb.NsPerOp - 1,
			})
		}
		if bb.AllocsPerOp > 0 {
			out = append(out, Delta{
				Name: bb.Name, Dimension: "allocs",
				Base: bb.AllocsPerOp, Current: cb.AllocsPerOp,
				Delta: cb.AllocsPerOp/bb.AllocsPerOp - 1,
			})
		}
	}
	return out
}
