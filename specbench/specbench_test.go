package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
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

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// TestBenchmarkFileMatchesProgram keeps BENCHMARK.json and the program's
// workload and metric tables in step, and every name and unit within the
// benchmark format's limits.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bf.EndToEnd), len(endToEnd))
	}
	largest := 0.0
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		largest = max(largest, m.Bound)
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
		if d.layer == "" || d.moves == "" {
			t.Errorf("%s: no layer or no end-to-end effect recorded", d.name)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metric{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
			t.Errorf("metric %q unit %q: outside the name or unit format", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("%s: better %q", d.name, d.better)
		}
		if seen[d.name] {
			t.Errorf("%s: declared twice", d.name)
		}
		seen[d.name] = true
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
	for _, d := range endToEnd {
		if d.name == "setup_s" && (d.unit != "s" || d.better != "lower" || d.bound != largest) {
			t.Errorf("setup_s must be seconds, lower-better, with the largest bound: %+v", d)
		}
	}
}

// TestFingerprintsCommitted checks that the default seed and the held-out
// seed have one fingerprint per variant of every workload.
func TestFingerprintsCommitted(t *testing.T) {
	var committed map[string]map[string][]string
	if err := json.Unmarshal(fingerprintsJSON, &committed); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, seed := range []uint64{1, 2} {
			fps := committed[w.name][strconv.FormatUint(seed, 10)]
			if len(fps) != w.variants {
				t.Errorf("%s seed %d: %d fingerprints, want %d", w.name, seed, len(fps), w.variants)
			}
		}
	}
}

// benchRun runs the benchmark in-process and decodes its last output line.
func benchRun(t *testing.T, args ...string) (string, result) {
	t.Helper()
	var out, errOut bytes.Buffer
	args = append(args, "--spans", t.TempDir()+"/spans.jsonl")
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d\n%s%s", res.Correct, res.Attempted, res.Failed, out.String(), errOut.String())
	}
	return out.String(), res
}

// TestEveryMetricPrintedWithUnit runs the cheapest workload in both modes:
// each mode's result line carries exactly its metrics, each with its unit,
// and the text report names each metric with the same unit.
func TestEveryMetricPrintedWithUnit(t *testing.T) {
	for _, mode := range []struct {
		trace string
		defs  []metric
	}{{"0", endToEnd}, {"1", perLayer}} {
		text, res := benchRun(t, "--workload", "ctp-mobile", "--seconds", "0", "--trace", mode.trace)
		if len(res.Metrics) != len(mode.defs) {
			t.Errorf("trace %s: %d metrics printed, want %d", mode.trace, len(res.Metrics), len(mode.defs))
		}
		for _, d := range mode.defs {
			v, ok := res.Metrics[d.name]
			if !ok || v.Unit != d.unit {
				t.Errorf("trace %s: %s printed as %+v, want unit %q", mode.trace, d.name, v, d.unit)
			}
			line := regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(d.name) + ` +\S+ ` + regexp.QuoteMeta(d.unit) + `$`)
			if !line.MatchString(text) {
				t.Errorf("trace %s: report has no line for %s in %s", mode.trace, d.name, d.unit)
			}
		}
	}
}

// TestShortRunMatchesFingerprint runs one round of every workload at the
// default seed; each Result must match its committed fingerprint.
func TestShortRunMatchesFingerprint(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			text, _ := benchRun(t, "--workload", w.name, "--seed", "1", "--seconds", "0", "--trace", "0")
			if n := strings.Count(text, "(matches the committed fingerprint)"); n != w.variants {
				t.Errorf("%d of %d variants matched their committed fingerprint:\n%s", n, w.variants, text)
			}
		})
	}
}
