// Command specbench is the repository's end-to-end benchmark. It drives the
// public scenario API from outside, one Spec→Result at a time (a closed loop
// with one client; lifetime-sweep runs a Matrix through scenario.Runner),
// checks every Result against a committed fingerprint (seeds 1 and 2) or,
// for other seeds, against the run's first output of the same spec, and
// prints each metric by name with its unit. The last line of its output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. From the
// repository root:
//
//	bash specbench/run.sh --workload relay-10k --seed 1 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics (host time, no spans). --trace 1
// replays each spec with a span around every scenario call plus standalone
// merge, regression and attribution calls, and reports per-layer metrics;
// the spans are written out as JSON lines when the run ends. --workload all
// runs every workload in turn and prefixes each metric with its workload.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	_ "repro/internal/apps" // registers the paper's apps with scenario
)

// fingerprintsJSON maps workload → seed → Result fingerprint, recorded for
// the default seed and one held-out seed.
//
//go:embed fingerprints.json
var fingerprintsJSON []byte

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("specbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", ")+", or all")
	seed := fs.Uint64("seed", 1, "workload seed; every input derives from it")
	seconds := fs.Float64("seconds", 10, "measurement window per workload, in seconds")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: traced run, per-layer metrics")
	spans := fs.String("spans", "", "where a traced run writes its spans (default .bench_build/spans/<workload>-seed<n>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || (*traceMode != 0 && *traceMode != 1) || *seconds < 0 {
		fs.Usage()
		return 2
	}
	var todo []*workload
	if *name == "all" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else if w := findWorkload(*name); w != nil {
		todo = append(todo, w)
	} else {
		fmt.Fprintf(stderr, "specbench: unknown workload %q (have %s, all)\n", *name, strings.Join(names, ", "))
		return 2
	}
	var committed map[string]map[string][]string
	if err := json.Unmarshal(fingerprintsJSON, &committed); err != nil {
		fmt.Fprintf(stderr, "specbench: fingerprints.json: %v\n", err)
		return 1
	}

	traced := *traceMode == 1
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	ref := newHostRef()
	final := result{Correct: true, Metrics: map[string]value{}}
	for _, w := range todo {
		b := newBench(w, *seed, ref, committed[w.name][strconv.FormatUint(*seed, 10)])
		got := b.measure(*seconds, traced)
		b.report(stdout, got, defs)
		for _, fault := range b.faults {
			fmt.Fprintf(stderr, "specbench: %s: %s\n", w.name, fault)
		}
		if traced {
			path := *spans
			if path == "" {
				path = fmt.Sprintf(".bench_build/spans/%s-seed%d.jsonl", w.name, *seed)
			}
			if err := b.tr.write(path); err != nil {
				fmt.Fprintf(stderr, "specbench: writing spans: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "spans written to %s\n", path)
		}
		final.Attempted += b.runs
		final.Failed += b.failed
		final.Correct = final.Correct && len(b.faults) == 0 && b.runs > 0
		for _, d := range defs {
			key := d.name
			if len(todo) > 1 {
				key = w.name + "." + d.name
			}
			final.Metrics[key] = value{Value: got[d.name], Unit: d.unit}
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(stderr, "specbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// measure runs the set-up repetitions, then rounds (every variant once)
// until the next round would overrun the window, with at least one round of
// each kind, and returns every metric of the mode by name: the median over
// rounds. A traced run alternates untraced and traced rounds, so its tracing
// overhead compares the two under the same host conditions.
func (b *bench) measure(seconds float64, traced bool) map[string]float64 {
	setup := b.setupTimes()
	var plain, spanned []sample
	var estPlain, estSpanned float64
	start := time.Now()
	for i := 0; ; i++ {
		doTrace := traced && i%2 == 1
		est := estPlain
		if doTrace {
			est = estSpanned
		}
		enough := len(plain) > 0 && (!traced || len(spanned) > 0)
		if enough && time.Since(start).Seconds()+est > seconds {
			break
		}
		t0 := time.Now()
		r := b.round(doTrace)
		if doTrace {
			spanned = append(spanned, r)
			estSpanned = time.Since(t0).Seconds()
		} else {
			plain = append(plain, r)
			estPlain = time.Since(t0).Seconds()
		}
	}
	b.setups, b.plain, b.spanned = len(setup), plain, spanned

	var walls, peaks, rates, hosts []float64
	for _, s := range plain {
		walls = append(walls, s.wallS)
		peaks = append(peaks, s.peakMiB)
		rates = append(rates, s.rate)
		hosts = append(hosts, s.hostMS)
	}
	for k, r := range b.recon {
		if r < 0 {
			b.problem("variant %d: no run completed, so recon_err is unknown", k)
		}
	}
	out := map[string]float64{
		"wall_s":        median(walls),
		"setup_s":       median(setup),
		"heap_peak_mib": median(peaks),
		"runs_per_s":    median(rates),
		// The mean over the variants' runs of each run's worst node.
		"recon_err": mean(b.recon),
	}
	if !traced {
		out["host_ref_ms"] = median(hosts)
		return out
	}
	layer := map[string][]float64{}
	var tracedWalls []float64
	for _, s := range spanned {
		tracedWalls = append(tracedWalls, s.wallS)
		hosts = append(hosts, s.hostMS)
		for k, v := range s.layer {
			layer[k] = append(layer[k], v)
		}
	}
	for k, vs := range layer {
		out[k] = median(vs)
	}
	out["host_ref_ms"] = median(hosts)
	out["trace_overhead_s"] = median(tracedWalls) - median(walls)
	for _, d := range perLayer {
		if _, ok := out[d.name]; !ok {
			b.problem("no traced sample produced %s", d.name)
		}
	}
	return out
}

// report prints the run's sample counts, its correctness, every metric of
// the mode by name with its unit, and, for a traced run, the self time of
// each span name.
func (b *bench) report(w io.Writer, got map[string]float64, defs []metric) {
	fmt.Fprintf(w, "workload %s seed %d: %d set-ups, %d untraced and %d traced rounds of %d variants\n",
		b.w.name, b.seed, b.setups, len(b.plain), len(b.spanned), b.w.variants)
	fmt.Fprintf(w, "runs attempted %d, failed %d, fail_frac %g\n", b.runs, b.failed, ratio(float64(b.failed), float64(b.runs)))
	for k, fp := range b.first {
		switch {
		case b.want[k] == "":
			fp += " (no committed fingerprint for this seed; checked for replay identity)"
		case fp == b.want[k]:
			fp += " (matches the committed fingerprint)"
		default:
			fp += " (committed " + b.want[k] + ")"
		}
		fmt.Fprintf(w, "fingerprint %d: %s\n", k, fp)
	}
	fmt.Fprintf(w, "round wall_s:")
	for _, s := range b.plain {
		fmt.Fprintf(w, " %.4g", s.wallS)
	}
	fmt.Fprintf(w, "\n")
	for _, d := range defs {
		fmt.Fprintf(w, "  %-26s %14.6g %s\n", d.name, got[d.name], d.unit)
	}
	if len(b.spanned) == 0 {
		fmt.Fprintf(w, "  %-26s %14.6g ms (diagnostic, not gated)\n", "host_ref_ms", got["host_ref_ms"])
		return
	}
	// Self time per span name, median over the traced samples, as a share
	// of the traced wall time; the root ("sample") keeps what no child
	// covers.
	self := map[string][]float64{}
	for id := range b.nextSpan {
		for k, v := range b.tr.selfTimes(id) {
			self[k] = append(self[k], v)
		}
	}
	wall := got["traced_wall_s"]
	fmt.Fprintf(w, "span self time (median of %d traced samples, share of traced wall %.6g s):\n", b.nextSpan, wall)
	printShares(w, self, wall)

	// Layer self time: analysis.network less the merge and regression the
	// probes time is the streaming analyzer, and scenario.finish less the
	// attribution is the fold.
	layers := map[string][]float64{}
	var pipeline float64
	for _, k := range []string{"build_s", "simulate_s", "merge_s", "regress_s", "stream_s", "attribute_s", "fold_s"} {
		layers[k] = []float64{got[k]}
		pipeline += got[k]
	}
	fmt.Fprintf(w, "layer self time (share of build+run+network+finish, %.6g s):\n", pipeline)
	printShares(w, layers, pipeline)
}

// printShares prints each name's median, largest first, with its share of
// total.
func printShares(w io.Writer, times map[string][]float64, total float64) {
	var names []string
	for k := range times {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool {
		mi, mj := median(times[names[i]]), median(times[names[j]])
		if mi != mj {
			return mi > mj
		}
		return names[i] < names[j]
	})
	for _, k := range names {
		s := median(times[k])
		fmt.Fprintf(w, "  %-26s %12.6f s %6.1f%%\n", k, s, 100*ratio(s, total))
	}
}
