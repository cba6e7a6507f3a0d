package analysis

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// rescanEnergyByActivity is the reference attribution fold: for every
// non-idle state segment it rescans the resource's whole activity timeline,
// O(S×A) per node. EnergyByActivity's merge walk must reproduce its sums
// bit for bit.
func rescanEnergyByActivity(a *Analysis) map[core.Label]float64 {
	out := make(map[core.Label]float64)
	for _, res := range a.stateResources() {
		for _, seg := range a.States[res] {
			if seg.State == 0 {
				continue
			}
			mw, ok := a.Reg.PowerMW[Predictor{res, seg.State}]
			if !ok {
				continue
			}
			rescanWindow(a, res, seg.Start, seg.End, mw, out)
		}
	}
	out[ConstLabel] += a.Reg.ConstMW * float64(a.Span()) / 1000
	return out
}

func rescanWindow(a *Analysis, res core.ResourceID, start, end int64, mw float64, out map[core.Label]float64) {
	charge := func(l core.Label, us int64) {
		if us > 0 {
			out[l] += mw * float64(us) / 1000
		}
	}
	if tl := a.Single[res]; tl != nil {
		for _, s := range tl.Segs {
			lo, hi := maxi64(s.Start, start), mini64(s.End, end)
			if hi > lo {
				charge(a.ownerOf(s), hi-lo)
			}
		}
		return
	}
	if mt := a.Multi[res]; mt != nil {
		for _, s := range mt.Segs {
			lo, hi := maxi64(s.Start, start), mini64(s.End, end)
			if hi <= lo {
				continue
			}
			switch {
			case len(s.Labels) == 0:
				charge(ConstLabel, hi-lo)
			case a.Opts.Split == SplitFirst:
				charge(s.Labels[0], hi-lo)
			default:
				for _, l := range s.Labels {
					out[l] += mw * float64(hi-lo) / 1000 / float64(len(s.Labels))
				}
			}
		}
		return
	}
	charge(ConstLabel, end-start)
}

// sameEnergies fails t unless got and want hold the same labels with
// exactly equal (==) energies.
func sameEnergies(t *testing.T, ctx string, got, want map[core.Label]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d labels, want %d (got %v, want %v)", ctx, len(got), len(want), got, want)
		return
	}
	for l, w := range want {
		if g, ok := got[l]; !ok || g != w {
			t.Errorf("%s: label %v = %v (present %v), want %v", ctx, l, g, ok, w)
		}
	}
}

// randomSpans returns sorted, disjoint [start, end) spans inside
// [0, horizon). Spans are short and mostly abut their predecessor, so on a
// small horizon they often share boundaries with other timelines and
// overlap them partially.
func randomSpans(rng *sim.RNG, horizon int64) [][2]int64 {
	var out [][2]int64
	t := int64(rng.Intn(3))
	for {
		if rng.Intn(3) == 0 {
			t += int64(1 + rng.Intn(5)) // a gap
		}
		end := t + int64(1+rng.Intn(6))
		if end > horizon {
			return out
		}
		out = append(out, [2]int64{t, end})
		t = end
	}
}

// randomLabels is the label pool of the synthetic analyses: two origins,
// idle included.
var randomLabels = []core.Label{
	core.MkLabel(1, core.ActIdle), core.MkLabel(1, 5), core.MkLabel(1, 6),
	core.MkLabel(2, 5), core.MkLabel(2, 9), core.MkLabel(3, 7),
}

// randomAnalysis builds an analysis directly from random timelines over five
// resources. Each resource gets a power-state timeline (or none), and one of:
// a single-activity timeline whose owners sometimes differ from the raw
// labels (a bound proxy), a multi-activity timeline whose label sets may be
// empty, an empty single-activity timeline, or no activity timeline at all.
// Fitted powers are random, negative ones included, and some predictors have
// no fit.
func randomAnalysis(rng *sim.RNG, opts Options) *Analysis {
	const horizon = 80
	a := &Analysis{
		Opts:    opts,
		StartUS: 0,
		EndUS:   horizon,
		Reg:     &Regression{PowerMW: make(map[Predictor]float64), ConstMW: rng.Float64() * 3},
		Single:  make(map[core.ResourceID]*ActTimeline),
		Multi:   make(map[core.ResourceID]*MultiTimeline),
		States:  make(map[core.ResourceID][]StateSegment),
	}
	for res := core.ResourceID(1); res <= 5; res++ {
		for st := core.PowerState(1); st <= 3; st++ {
			if rng.Intn(4) != 0 {
				a.Reg.PowerMW[Predictor{res, st}] = rng.Float64()*20 - 2
			}
		}
		if rng.Intn(6) != 0 {
			var segs []StateSegment
			for _, sp := range randomSpans(rng, horizon) {
				segs = append(segs, StateSegment{Start: sp[0], End: sp[1], State: core.PowerState(rng.Intn(4))})
			}
			a.States[res] = segs
		}
		switch rng.Intn(5) {
		case 0, 1:
			tl := &ActTimeline{Res: res}
			for _, sp := range randomSpans(rng, horizon) {
				l := randomLabels[rng.Intn(len(randomLabels))]
				owner := l
				if rng.Intn(4) == 0 {
					owner = randomLabels[rng.Intn(len(randomLabels))]
				}
				tl.Segs = append(tl.Segs, Segment{Start: sp[0], End: sp[1], Label: l, Owner: owner})
			}
			a.Single[res] = tl
		case 2, 3:
			mt := &MultiTimeline{Res: res}
			for _, sp := range randomSpans(rng, horizon) {
				set := make(map[core.Label]struct{})
				for n := rng.Intn(4); n > 0; n-- {
					set[randomLabels[1+rng.Intn(len(randomLabels)-1)]] = struct{}{}
				}
				mt.Segs = append(mt.Segs, MultiSegment{Start: sp[0], End: sp[1], Labels: sortedLabels(set)})
			}
			a.Multi[res] = mt
		default:
			if rng.Intn(2) == 0 {
				a.Single[res] = &ActTimeline{Res: res} // instrumented, never set
			}
		}
	}
	return a
}

// allOptions is every split policy with proxy resolution on and off.
func allOptions() []Options {
	var out []Options
	for _, split := range []SplitPolicy{SplitEqual, SplitFirst} {
		for _, resolve := range []bool{true, false} {
			opts := DefaultOptions()
			opts.Split, opts.ResolveProxies = split, resolve
			out = append(out, opts)
		}
	}
	return out
}

// TestEnergyByActivityMatchesRescan is the differential property of the
// merge walk: on random timelines with gaps, partial overlaps, segments that
// abut state boundaries, empty label sets and uninstrumented resources,
// under every split policy with proxy resolution on and off, its per-label
// sums equal the full rescan's exactly.
func TestEnergyByActivityMatchesRescan(t *testing.T) {
	rng := sim.NewRNG(13)
	for trial := 0; trial < 400; trial++ {
		for _, opts := range allOptions() {
			a := randomAnalysis(rng, opts)
			sameEnergies(t, "random analysis", a.EnergyByActivity(), rescanEnergyByActivity(a))
		}
	}
}

// TestEnergyByActivityMatchesRescanStreamed runs the same comparison on
// analyses the StreamAnalyzer built from random entry streams — proxy binds,
// multi-activity adds and removes, several entries per microsecond and a
// 32-bit clock wrap — with random fitted powers in place of the regression,
// so most observed states carry a charge whatever the random fit would do.
func TestEnergyByActivityMatchesRescanStreamed(t *testing.T) {
	rng := sim.NewRNG(31)
	for trial := 0; trial < 60; trial++ {
		entries := randomEntryStream(rng, 600, math.MaxUint32-3000)
		for _, opts := range allOptions() {
			a := streamAnalysis(t, entries, opts)
			a.Reg = &Regression{PowerMW: make(map[Predictor]float64), ConstMW: rng.Float64()}
			for _, res := range a.stateResources() {
				for _, seg := range a.States[res] {
					if seg.State != 0 && rng.Intn(5) != 0 {
						a.Reg.PowerMW[Predictor{res, seg.State}] = rng.Float64() * 10
					}
				}
			}
			sameEnergies(t, "streamed analysis", a.EnergyByActivity(), rescanEnergyByActivity(a))
		}
	}
}

// Resources of the random entry streams: two single-activity devices, one
// multi-activity device, and one device with power states but no activity.
const (
	streamCPU   core.ResourceID = 1
	streamRadio core.ResourceID = 2
	streamBus   core.ResourceID = 3
	streamLED   core.ResourceID = 4
)

// streamProxy is the proxy label the random streams bind away.
var streamProxy = core.MkLabel(1, 200)

// randomEntryStream returns n random log entries whose 32-bit clock starts
// at t0 and advances by 0-40 us per entry (a third of steps are zero, so
// several entries often share one microsecond). Starting near the top of
// the 32-bit range makes the clock wrap mid-stream.
func randomEntryStream(rng *sim.RNG, n int, t0 uint32) []core.Entry {
	now, ic := t0, uint32(0)
	out := make([]core.Entry, 0, n)
	for i := 0; i < n; i++ {
		if rng.Intn(3) != 0 {
			now += uint32(1 + rng.Intn(40)) // uint32 arithmetic wraps
		}
		ic += uint32(rng.Intn(5))
		e := core.Entry{Time: now, IC: ic}
		l := randomLabels[rng.Intn(len(randomLabels))]
		switch rng.Intn(7) {
		case 0:
			res := []core.ResourceID{streamCPU, streamRadio, streamBus, streamLED}[rng.Intn(4)]
			e.Type, e.Res, e.Val = core.EntryPowerState, res, uint16(rng.Intn(3))
		case 1:
			e.Type, e.Res, e.Val = core.EntryActivitySet, streamCPU, uint16(streamProxy)
		case 2:
			e.Type, e.Res, e.Val = core.EntryActivityBind, streamCPU, uint16(l)
		case 3:
			res := []core.ResourceID{streamCPU, streamRadio}[rng.Intn(2)]
			e.Type, e.Res, e.Val = core.EntryActivitySet, res, uint16(l)
		case 4:
			e.Type, e.Res, e.Val = core.EntryActivityAdd, streamBus, uint16(l)
		case 5:
			e.Type, e.Res, e.Val = core.EntryActivityRemove, streamBus, uint16(l)
		default:
			e.Type, e.Val = core.EntryMarker, 0xFFFF
		}
		out = append(out, e)
	}
	return out
}

func streamAnalysis(t *testing.T, entries []core.Entry, opts Options) *Analysis {
	t.Helper()
	dict := core.NewDictionary()
	dict.MarkProxy(streamProxy)
	sa := NewStreamAnalyzer(1, 1, 3.0, dict, opts)
	sa.RecordBatch(entries)
	a, err := sa.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestTimelinesSortedAndDisjoint checks the precondition the attribution
// walk relies on: whatever the entry stream — clock wraps, runs of entries
// within one microsecond — every Single, Multi and States timeline the
// StreamAnalyzer produces is sorted by Start, pairwise disjoint, and made of
// segments with End > Start.
func TestTimelinesSortedAndDisjoint(t *testing.T) {
	rng := sim.NewRNG(5)
	for trial := 0; trial < 60; trial++ {
		t0 := uint32(rng.Intn(1 << 20))
		if trial%2 == 0 {
			t0 = math.MaxUint32 - uint32(rng.Intn(5000))
		}
		a := streamAnalysis(t, randomEntryStream(rng, 800, t0), DefaultOptions())
		check := func(kind string, res core.ResourceID, spans [][2]int64) {
			t.Helper()
			for i, sp := range spans {
				if sp[1] <= sp[0] {
					t.Fatalf("trial %d: %s[%d] segment %d is [%d, %d)", trial, kind, res, i, sp[0], sp[1])
				}
				if i > 0 && sp[0] < spans[i-1][1] {
					t.Fatalf("trial %d: %s[%d] segment %d [%d, %d) starts before %d, the previous end",
						trial, kind, res, i, sp[0], sp[1], spans[i-1][1])
				}
				if sp[0] < a.StartUS || sp[1] > a.EndUS {
					t.Fatalf("trial %d: %s[%d] segment %d [%d, %d) outside the window [%d, %d)",
						trial, kind, res, i, sp[0], sp[1], a.StartUS, a.EndUS)
				}
			}
		}
		for res, tl := range a.Single {
			var spans [][2]int64
			for _, seg := range tl.Segs {
				spans = append(spans, [2]int64{seg.Start, seg.End})
			}
			check("Single", res, spans)
		}
		for res, mt := range a.Multi {
			var spans [][2]int64
			for _, seg := range mt.Segs {
				spans = append(spans, [2]int64{seg.Start, seg.End})
			}
			check("Multi", res, spans)
		}
		for res, segs := range a.States {
			var spans [][2]int64
			for _, seg := range segs {
				spans = append(spans, [2]int64{seg.Start, seg.End})
			}
			check("States", res, spans)
		}
		if trial%2 == 0 && a.EndUS <= math.MaxUint32 {
			t.Fatalf("trial %d: the stream was meant to wrap the 32-bit clock but ends at %d", trial, a.EndUS)
		}
	}
}

// TestNetworkReportMatchesPerLabelQueries checks that Report, which runs
// each node's attribution once, prints exactly the table built from
// EnergyByActivity and one RemoteEnergyUJ query per label.
func TestNetworkReportMatchesPerLabelQueries(t *testing.T) {
	rng := sim.NewRNG(8)
	for trial := 0; trial < 20; trial++ {
		var nodes []*Analysis
		for id := core.NodeID(1); id <= 3; id++ {
			a := randomAnalysis(rng, DefaultOptions())
			a.Trace = &NodeTrace{Node: id}
			nodes = append(nodes, a)
		}
		n := NewNetwork(core.NewDictionary(), nodes...)

		byAct := n.EnergyByActivity()
		labels := make([]core.Label, 0, len(byAct))
		for l := range byAct {
			labels = append(labels, l)
		}
		sort.Slice(labels, func(i, j int) bool { return byAct[labels[i]] > byAct[labels[j]] })
		want := fmt.Sprintf("%-22s %12s %12s\n", "Activity", "Total (mJ)", "Remote (mJ)")
		for _, l := range labels {
			name, remote := "Const.", 0.0
			if l != ConstLabel {
				name, remote = n.Dict.LabelName(l), n.RemoteEnergyUJ(l)
			}
			want += fmt.Sprintf("%-22s %12.3f %12.3f\n", name, byAct[l]/1000, remote/1000)
		}
		if got := n.Report(); got != want {
			t.Fatalf("trial %d: Report =\n%s\nwant\n%s", trial, got, want)
		}
	}
}
