package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"

	"repro/internal/analysis"
	"repro/internal/mote"
	"repro/internal/scenario"
)

// Set-up is repeated until both floors are met (capped by setupMaxReps), and
// setup_s is the median: one sub-millisecond Build is too short to time
// alone, and the first of a run pays the process's cold heap.
const (
	setupMinReps = 5
	setupMinTime = 250 * time.Millisecond
	setupMaxReps = 200
)

// bench measures one workload at one seed.
type bench struct {
	w    *workload
	seed uint64
	tr   *tracer
	ref  *hostRef
	// Per variant: the committed fingerprint ("" when the seed has none),
	// the first fingerprint this run produced, and the worst per-node
	// reconstruction error (-1 until known).
	want, first []string
	recon       []float64
	nextSpan    int // id of the next traced sample
	failed      int
	runs        int
	faults      []string
	// What measure saw, kept for the report.
	setups         int
	plain, spanned []sample
}

func newBench(w *workload, seed uint64, ref *hostRef, want []string) *bench {
	b := &bench{w: w, seed: seed, tr: newTracer(), ref: ref,
		want: make([]string, w.variants), first: make([]string, w.variants),
		recon: make([]float64, w.variants)}
	copy(b.want, want)
	for k := range b.recon {
		b.recon[k] = -1
	}
	return b
}

// sample is one timed pass: a Spec→Result or a Matrix→[]Result for a single
// variant, or the fold of one round over every variant.
type sample struct {
	wallS float64
	runs  int
	rate  float64 // runs per second of wall time
	// peakMiB is the Go heap's peak above the live heap at the start.
	peakMiB float64
	hostMS  float64
	// layer holds a traced sample's per-layer values; nil when untraced.
	layer map[string]float64
}

func (b *bench) problem(format string, args ...any) {
	b.faults = append(b.faults, fmt.Sprintf(format, args...))
}

// fingerprint hashes the JSON of every part, one line each. Result JSON is
// byte-stable for a given spec (the repository's replay contract), so the
// hash names one exact output.
func fingerprint(parts ...any) (string, error) {
	h := sha256.New()
	for _, p := range parts {
		raw, err := json.Marshal(p)
		if err != nil {
			return "", err
		}
		h.Write(raw)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:16]), nil
}

// matchFingerprint reports whether fp is variant k's expected output: the
// committed fingerprint when the seed has one, otherwise the variant's
// first output in this run, since every replay of one spec must be
// byte-identical.
func (b *bench) matchFingerprint(k int, fp string) bool {
	if b.first[k] == "" {
		b.first[k] = fp
	}
	if b.want[k] != "" {
		return fp == b.want[k]
	}
	return fp == b.first[k]
}

func (b *bench) expected(k int) string {
	if b.want[k] != "" {
		return b.want[k] + " (committed)"
	}
	return b.first[k] + " (first of this run)"
}

// setupTimes times the workload's set-up (scenario.Build of the first
// variant, or Matrix.Expand for the sweep) repeatedly after a GC each.
func (b *bench) setupTimes() []float64 {
	var times []float64
	start := time.Now()
	for len(times) < setupMaxReps && (len(times) < setupMinReps || time.Since(start) < setupMinTime) {
		runtime.GC()
		t0 := time.Now()
		var err error
		if b.w.spec != nil {
			_, err = scenario.Build(b.w.specFor(b.seed, 0))
		} else {
			m := b.w.matrix(b.seed)
			_, err = m.Expand()
		}
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			b.problem("set-up: %v", err)
			break
		}
	}
	return times
}

// round runs every variant once, untraced or traced, and folds the samples:
// wall time, heap peak and host reference are means over the variants, so
// a round's figures average over its seeds, and the rate is runs over the
// summed wall time.
func (b *bench) round(traced bool) sample {
	var r sample
	var wall float64
	layers := 0
	for k := range b.w.variants {
		var s sample
		switch {
		case b.w.spec != nil && traced:
			s = b.specTraced(k)
		case b.w.spec != nil:
			s = b.specUntraced(k)
		case traced:
			s = b.sweepTraced()
		default:
			s = b.sweepUntraced()
		}
		wall += s.wallS
		r.runs += s.runs
		r.peakMiB += s.peakMiB
		r.hostMS += s.hostMS
		if s.layer != nil {
			if r.layer == nil {
				r.layer = map[string]float64{}
			}
			for key, v := range s.layer {
				r.layer[key] += v
			}
			layers++
		}
	}
	n := float64(b.w.variants)
	r.wallS = wall / n
	r.rate = ratio(float64(r.runs), wall)
	r.peakMiB /= n
	r.hostMS /= n
	for key := range r.layer {
		r.layer[key] /= float64(layers)
	}
	return r
}

// runSpec is scenario.RunSpec with the Instance kept, so the analysis can be
// read after the timed region.
func runSpec(spec scenario.Spec) (in *scenario.Instance, res *scenario.Result) {
	defer func() {
		if p := recover(); p != nil {
			res = &scenario.Result{Spec: spec, Error: fmt.Sprintf("panic: %v", p)}
		}
	}()
	in, err := scenario.Build(spec)
	if err != nil {
		return nil, &scenario.Result{Spec: spec, Error: err.Error()}
	}
	in.Run()
	res, err = in.Finish()
	if err != nil {
		return in, &scenario.Result{Spec: spec, Error: err.Error()}
	}
	return in, res
}

// specUntraced is one closed-loop Spec→Result of variant k, with no spans.
func (b *bench) specUntraced(k int) sample {
	spec := b.w.specFor(b.seed, k)
	runtime.GC()
	hostMS := b.ref.timeMS()
	mw := startMemWatch()
	t0 := time.Now()
	in, res := runSpec(spec)
	wall := time.Since(t0).Seconds()
	peak := mw.finish()
	b.checkSpecResult(k, spec, res)
	if b.recon[k] < 0 && in != nil && res.Error == "" {
		if net, err := in.Network(); err == nil {
			b.recon[k] = worstRecon(net)
		}
	}
	return sample{wallS: wall, runs: 1, peakMiB: peak, hostMS: hostMS}
}

// checkSpecResult counts one Result of variant k against its fingerprint
// and the invariants every run of these workloads holds.
func (b *bench) checkSpecResult(k int, spec scenario.Spec, res *scenario.Result) {
	b.runs++
	if res.Error != "" {
		b.failed++
		b.problem("run failed: %s", res.Error)
		return
	}
	fp, err := fingerprint(res)
	if err != nil {
		b.failed++
		b.problem("result does not encode: %v", err)
		return
	}
	if !b.matchFingerprint(k, fp) {
		b.failed++
		b.problem("variant %d: fingerprint %s, want %s", k, fp, b.expected(k))
		return
	}
	if res.Entries <= 0 || res.TotalUJ <= 0 || len(res.Nodes) != spec.Nodes {
		b.failed++
		b.problem("implausible result: %d entries, %g uJ, %d of %d nodes",
			res.Entries, res.TotalUJ, len(res.Nodes), spec.Nodes)
	}
}

// worstRecon is the highest per-node ReconstructionError: the paper's
// measured-versus-reconstructed energy accuracy (Section 5).
func worstRecon(net *analysis.Network) float64 {
	worst := 0.0
	for _, a := range net.Nodes {
		worst = max(worst, a.ReconstructionError())
	}
	return worst
}

// pipelineCounts accumulates a traced run's per-layer quantities. Times and
// counts add across the runs of a sweep; the ratios are taken at the end.
type pipelineCounts struct {
	build, simulate, analyze, finish   float64
	merge, regress, attribute          float64
	events, merged, entries, intervals float64
	stateSegs, actSegs                 float64
	attempts, delivered, collisions    float64
	beacons, parentChanges             float64
	generated, deliveredPkts           float64
}

// tracedPipeline runs one spec with a span around each scenario call, then
// times the merge, the regression and the attribution again as standalone
// calls under a "probes" span: they stand for the same work inside
// analysis.network and scenario.finish, which the scenario API runs without
// a seam to time it at. It adds the run's timings and event counts to c.
func (b *bench) tracedPipeline(spec scenario.Spec, id, parent int, c *pipelineCounts) (res *scenario.Result, net *analysis.Network, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, net, err = nil, nil, fmt.Errorf("panic: %v", p)
		}
	}()
	tr := b.tr
	sp := tr.begin(id, parent, "scenario.build")
	in, err := scenario.Build(spec)
	c.build += tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = tr.begin(id, parent, "sim.run")
	// Instance.Run's two calls, made here to keep World.Run's event count.
	events := in.World.Run(in.Spec.Duration())
	in.World.StampEnd()
	c.simulate += tr.end(sp)
	sp = tr.begin(id, parent, "analysis.network")
	net, err = in.Network()
	c.analyze += tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = tr.begin(id, parent, "scenario.finish")
	res, err = in.Finish()
	c.finish += tr.end(sp)
	if err != nil {
		return nil, nil, err
	}

	probes := tr.begin(id, parent, "probes")
	sp = tr.begin(id, probes, "trace.merge")
	merged, mergeErr := drainMerge(in.World)
	c.merge += tr.end(sp)
	sp = tr.begin(id, probes, "analysis.regress")
	intervals := regressAll(net)
	c.regress += tr.end(sp)
	sp = tr.begin(id, probes, "analysis.attribute")
	net.EnergyByActivity()
	c.attribute += tr.end(sp)
	tr.end(probes)
	if mergeErr != nil {
		return nil, nil, mergeErr
	}

	c.events += float64(events)
	c.merged += float64(merged)
	c.intervals += float64(intervals)
	return res, net, nil
}

// addResult adds the counts a finished run reports to c.
func (c *pipelineCounts) addResult(res *scenario.Result, net *analysis.Network) {
	c.entries += float64(res.Entries)
	st, act := segments(net)
	c.stateSegs += float64(st)
	c.actSegs += float64(act)
	for _, l := range res.Links {
		c.attempts += float64(l.Attempts)
		c.delivered += float64(l.Delivered)
	}
	c.collisions += float64(res.Collisions)
	c.beacons += res.Metrics["net_beacons_tx"]
	c.parentChanges += res.Metrics["net_parent_changes"]
	c.generated += res.Metrics["generated"]
	c.deliveredPkts += res.Metrics["delivered"]
}

// drainMerge pulls the k-way merge of every node's log to the end.
func drainMerge(w *mote.World) (int, error) {
	m, err := w.Merged()
	if err != nil {
		return 0, err
	}
	n := 0
	for {
		if _, err := m.Next(); err != nil {
			if errors.Is(err, io.EOF) {
				return n, nil
			}
			return n, err
		}
		n++
	}
}

// regressAll refits every node's WLS regression from its state intervals
// and returns the interval count. A node whose log cannot be fitted fails
// the same way inside the analysis, which degrades it to a constant model.
func regressAll(net *analysis.Network) int {
	n := 0
	for _, a := range net.Nodes {
		_, _ = analysis.RunRegression(a.Intervals, a.Trace.PulseUJ, a.Opts.Regression)
		n += len(a.Intervals)
	}
	return n
}

// segments counts the state segments and the activity segments the
// attribution pass walks.
func segments(net *analysis.Network) (state, activity int) {
	for _, a := range net.Nodes {
		for _, segs := range a.States {
			state += len(segs)
		}
		for _, tl := range a.Single {
			activity += len(tl.Segs)
		}
		for _, tl := range a.Multi {
			activity += len(tl.Segs)
		}
	}
	return state, activity
}

// layerValues turns accumulated quantities into the per-layer metrics.
func (c *pipelineCounts) layerValues() map[string]float64 {
	return map[string]float64{
		"simulate_s":               c.simulate,
		"sim_events":               c.events,
		"sim_ns_per_event":         ratio(c.simulate*1e9, c.events),
		"events_per_entry":         ratio(c.events, c.entries),
		"link_attempts":            c.attempts,
		"link_prr":                 ratio(c.delivered, c.attempts),
		"collisions":               c.collisions,
		"net_beacons_tx":           c.beacons,
		"net_parent_changes":       c.parentChanges,
		"delivery_ratio":           ratio(c.deliveredPkts, c.generated),
		"merge_s":                  c.merge,
		"merge_ns_per_entry":       ratio(c.merge*1e9, c.merged),
		"analyze_s":                c.analyze,
		"regress_s":                c.regress,
		"stream_s":                 c.analyze - c.merge - c.regress,
		"attribute_s":              c.attribute,
		"attribute_ns_per_segment": ratio(c.attribute*1e9, c.stateSegs+c.actSegs),
		"entries":                  c.entries,
		"intervals":                c.intervals,
		"state_segments":           c.stateSegs,
		"activity_segments":        c.actSegs,
		"build_s":                  c.build,
		"finish_s":                 c.finish,
		"fold_s":                   c.finish - c.attribute,
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// specTraced is one traced Spec→Result of variant k: the pipeline spans
// under a root span covering the whole sample.
func (b *bench) specTraced(k int) sample {
	spec := b.w.specFor(b.seed, k)
	id := b.nextSpan
	b.nextSpan++
	runtime.GC()
	hostMS := b.ref.timeMS()
	root := b.tr.begin(id, -1, "sample")
	alloc0, gc0 := readGC()
	var c pipelineCounts
	res, net, err := b.tracedPipeline(spec, id, root, &c)
	alloc1, gc1 := readGC()
	wall := b.tr.end(root)
	if err != nil {
		b.runs++
		b.failed++
		b.problem("traced run failed: %v", err)
		return sample{wallS: wall, hostMS: hostMS}
	}
	b.checkSpecResult(k, spec, res)
	if b.recon[k] < 0 {
		b.recon[k] = worstRecon(net)
	}
	c.addResult(res, net)
	lv := c.layerValues()
	lv["runner_efficiency"] = 1 // one client, no pool
	b.addCommon(lv, id, wall, hostMS, alloc1-alloc0, gc1-gc0)
	return sample{wallS: wall, runs: 1, hostMS: hostMS, layer: lv}
}

// addCommon fills the memory and trace-accounting values every traced
// sample reports. The memory counters cover the pipeline calls only, not
// the standalone probes, which are tracing's own work.
func (b *bench) addCommon(lv map[string]float64, id int, wall, hostMS float64, alloc, cycles uint64) {
	lv["alloc_mib"] = float64(alloc) / (1 << 20)
	lv["gc_cycles"] = float64(cycles)
	lv["traced_wall_s"] = wall
	lv["span_remainder_s"] = b.tr.selfTimes(id)["sample"]
	lv["host_ref_ms"] = hostMS
}

// sweepUntraced is one Matrix→[]Result through the Runner plus the report
// folds, with no spans.
func (b *bench) sweepUntraced() sample {
	m := b.w.matrix(b.seed)
	runtime.GC()
	hostMS := b.ref.timeMS()
	mw := startMemWatch()
	t0 := time.Now()
	specs, err := m.Expand()
	results := (&scenario.Runner{Workers: sweepWorkers}).Run(specs)
	lt := scenario.Lifetimes(results)
	ag := scenario.Aggregate(results)
	wall := time.Since(t0).Seconds()
	peak := mw.finish()
	if err != nil {
		b.runs++
		b.failed++
		b.problem("expand: %v", err)
		return sample{wallS: wall, hostMS: hostMS}
	}
	b.checkSweep(m, results, lt, ag)
	return sample{wallS: wall, runs: len(results), peakMiB: peak, hostMS: hostMS}
}

// checkSweep counts a sweep's results: each errored run fails, and a
// fingerprint mismatch over results plus reports fails them all.
func (b *bench) checkSweep(m scenario.Matrix, results []*scenario.Result, lt *analysis.LifetimeReport, ag *analysis.Aggregate) {
	b.runs += len(results)
	deaths := 0
	for _, r := range results {
		if r.Error != "" {
			b.failed++
			b.problem("run %d failed: %s", r.Run, r.Error)
			continue
		}
		deaths += r.Deaths
	}
	if deaths == 0 {
		b.problem("no battery death in the sweep: the depletion path was not exercised")
	}
	parts := make([]any, 0, len(results)+2)
	for _, r := range results {
		parts = append(parts, r)
	}
	parts = append(parts, lt, ag)
	fp, err := fingerprint(parts...)
	if err != nil || !b.matchFingerprint(0, fp) {
		b.failed += len(results)
		b.problem("sweep fingerprint %s (%v), want %s", fp, err, b.expected(0))
	}
	if b.recon[0] < 0 {
		b.recon[0] = sweepRecon(m)
	}
}

// reconReplicas is how many seed replicas of each sweep configuration
// sweepRecon replays.
const reconReplicas = 32

// sweepRecon replays the first reconReplicas seed replicas of every
// configuration and returns the mean over those runs of each run's worst
// per-node reconstruction error. The Runner keeps no analysis, and
// replaying every run would double the cost; a mean over a few hundred
// runs is as steady across seeds as the spec workloads' figures.
func sweepRecon(m scenario.Matrix) float64 {
	specs, err := m.Expand()
	if err != nil {
		return 0
	}
	per := max(m.Seeds, 1)
	var worst []float64
	for i, spec := range specs {
		if i%per >= reconReplicas {
			continue
		}
		in, res := runSpec(spec)
		if in == nil || res.Error != "" {
			continue
		}
		if net, err := in.Network(); err == nil {
			worst = append(worst, worstRecon(net))
		}
	}
	return mean(worst)
}

// sweepTraced times the sweep as the untraced sample does, under spans, and
// then replays every expanded spec serially through tracedPipeline. Each
// replay must reproduce the Runner's Result byte for byte.
func (b *bench) sweepTraced() sample {
	m := b.w.matrix(b.seed)
	id := b.nextSpan
	b.nextSpan++
	runtime.GC()
	hostMS := b.ref.timeMS()
	tr := b.tr
	root := tr.begin(id, -1, "sample")
	sp := tr.begin(id, root, "scenario.expand")
	specs, err := m.Expand()
	tr.end(sp)
	if err != nil {
		b.runs++
		b.failed++
		b.problem("expand: %v", err)
		return sample{wallS: tr.end(root), hostMS: hostMS}
	}
	alloc0, gc0 := readGC()
	sp = tr.begin(id, root, "scenario.runner")
	results := (&scenario.Runner{Workers: sweepWorkers}).Run(specs)
	runnerWall := tr.end(sp)
	sp = tr.begin(id, root, "scenario.report")
	lt := scenario.Lifetimes(results)
	ag := scenario.Aggregate(results)
	tr.end(sp)
	alloc1, gc1 := readGC()

	var c pipelineCounts
	var replays []*scenario.Result
	replay := tr.begin(id, root, "scenario.replay")
	for _, spec := range specs {
		res, net, err := b.tracedPipeline(spec, id, replay, &c)
		if err != nil {
			res = &scenario.Result{Spec: spec, Error: err.Error()}
		} else {
			c.addResult(res, net)
		}
		replays = append(replays, res)
	}
	tr.end(replay)
	wall := tr.end(root)

	b.checkSweep(m, results, lt, ag)
	b.runs += len(replays)
	for i, res := range replays {
		res.Run = i
		got, err1 := json.Marshal(res)
		want, err2 := json.Marshal(results[i])
		if err1 != nil || err2 != nil || string(got) != string(want) {
			b.failed++
			b.problem("replay %d differs from the Runner's result: %s", i, res.Error)
		}
	}
	lv := c.layerValues()
	serial := c.build + c.simulate + c.analyze + c.finish
	lv["runner_efficiency"] = ratio(serial, sweepWorkers*runnerWall)
	b.addCommon(lv, id, wall, hostMS, alloc1-alloc0, gc1-gc0)
	return sample{wallS: wall, runs: len(specs), hostMS: hostMS, layer: lv}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
