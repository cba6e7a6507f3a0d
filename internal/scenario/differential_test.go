package scenario_test

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	_ "repro/internal/apps" // registers the paper's workloads
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/traffic"
	"repro/internal/units"
)

// encodedTraces runs the spec and returns every node's log in wire form,
// concatenated in node-id order with a per-node header. Any difference in
// event dispatch — order, timing, RNG consumption — shows up as a byte
// difference here.
func encodedTraces(t *testing.T, spec scenario.Spec) ([]byte, map[string]float64) {
	t.Helper()
	in, err := scenario.Build(spec)
	if err != nil {
		t.Fatalf("build %s (queue=%q): %v", spec.App, spec.Queue, err)
	}
	in.Run()
	logs := in.World.NodeLogs()
	ids := make([]core.NodeID, 0, len(logs))
	for id := range logs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var buf bytes.Buffer
	for _, id := range ids {
		fmt.Fprintf(&buf, "node %d: %d entries\n", id, len(logs[id]))
		buf.Write(trace.Marshal(logs[id]))
	}
	var metrics map[string]float64
	if in.Metrics != nil {
		metrics = in.Metrics()
	}
	return buf.Bytes(), metrics
}

// TestWheelHeapTraceIdentity is the differential property test for the
// timer-wheel scheduler: for every registered app, across seeds and
// placements, a run on the wheel queue must produce byte-identical node
// traces (and identical metrics) to the same run on the legacy binary-heap
// queue. The queue is an implementation choice, never an experimental
// variable; this test is the proof.
func TestWheelHeapTraceIdentity(t *testing.T) {
	base := func(app string, dur units.Ticks) scenario.Spec {
		return scenario.Spec{App: app, DurationUS: int64(dur)}
	}
	variants := []scenario.Spec{
		base("blink", 2*units.Second),
		base("bounce", 2*units.Second),
		func() scenario.Spec {
			s := base("bounce", 2*units.Second)
			s.Placement = scenario.PlacementLine
			return s
		}(),
		base("lpl", 2*units.Second),
		base("relay", 2*units.Second),
		func() scenario.Spec {
			s := base("relay", units.Second)
			s.Nodes = 12
			s.Placement = scenario.PlacementRGG
			return s
		}(),
		base("sensesend", 2*units.Second),
		func() scenario.Spec {
			s := base("sensesend", 2*units.Second)
			s.Placement = scenario.PlacementGrid
			return s
		}(),
		base("timerbug", 2*units.Second),
		base("dma", units.Second),
		func() scenario.Spec {
			s := base("dma", units.Second)
			s.UseDMA = true
			return s
		}(),
		// Mid-run battery deaths: every CPU edge cancels and re-arms a
		// depletion check, and a death pulls a node off the medium while
		// traffic is in flight.
		func() scenario.Spec {
			s := base("relay", 4*units.Second)
			s.Nodes = 12
			s.Origins = 4
			s.PeriodUS = int64(250 * units.Millisecond)
			s.Placement = scenario.PlacementLine
			s.BatteryUAH = 0.9
			return s
		}(),
		// Shaped load from private per-sender streams.
		func() scenario.Spec {
			s := base("relay", 3*units.Second)
			s.Nodes = 12
			s.Origins = 4
			s.Placement = scenario.PlacementLine
			s.Traffic = &traffic.Spec{
				Shape:    traffic.ShapeOnOff,
				RPS:      20,
				OnMinUS:  int64(300 * units.Millisecond),
				OffMinUS: int64(200 * units.Millisecond),
			}
			return s
		}(),
		// Routed plus deaths: NeighborDied events at the topology priority.
		func() scenario.Spec {
			s := base("relay", 4*units.Second)
			s.Nodes = 10
			s.Origins = 3
			s.PeriodUS = int64(250 * units.Millisecond)
			s.Placement = scenario.PlacementLine
			s.Routing = scenario.RoutingCTP
			s.BatteryUAH = 0.9
			return s
		}(),
		// Routed plus mobility: epoch events patch the neighbor index.
		func() scenario.Spec {
			s := base("relay", 3*units.Second)
			s.Nodes = 12
			s.Origins = 4
			s.PeriodUS = int64(250 * units.Millisecond)
			s.Placement = scenario.PlacementGrid
			s.Routing = scenario.RoutingCTP
			s.Mobility = scenario.MobilityWaypoint
			s.SpeedMPS = 12
			return s
		}(),
	}
	// Every registered app must appear above: a new app cannot ship without
	// joining the differential suite.
	covered := make(map[string]bool)
	for _, v := range variants {
		covered[v.App] = true
	}
	for _, app := range scenario.Apps() {
		if !covered[app] {
			t.Errorf("registered app %q has no wheel-vs-heap variant in this test", app)
		}
	}

	for _, v := range variants {
		for _, seed := range []uint64{1, 7} {
			v := v
			v.Seed = seed
			name := fmt.Sprintf("%s/seed=%d/placement=%s", v.App, seed, v.Placement)
			if v.Traffic != nil {
				name += "/shape=" + v.Traffic.Shape
			}
			if v.Routing != "" {
				name += "/routing=" + v.Routing
			}
			if v.Mobility != "" {
				name += "/mobility=" + v.Mobility
			}
			if v.BatteryUAH > 0 {
				name += "/battery"
			}
			t.Run(name, func(t *testing.T) {
				wheel := v
				wheel.Queue = "wheel"
				heap := v
				heap.Queue = "heap"
				if wheel.ConfigKey() != heap.ConfigKey() {
					t.Fatalf("queue choice leaked into ConfigKey:\n%s\nvs\n%s",
						wheel.ConfigKey(), heap.ConfigKey())
				}
				wb, wm := encodedTraces(t, wheel)
				hb, hm := encodedTraces(t, heap)
				if !bytes.Equal(wb, hb) {
					t.Fatalf("wheel and heap traces differ (%d vs %d bytes)", len(wb), len(hb))
				}
				if len(wm) != len(hm) {
					t.Fatalf("metric sets differ: %v vs %v", wm, hm)
				}
				for k, wv := range wm {
					if hv, ok := hm[k]; !ok || hv != wv {
						t.Errorf("metric %q: wheel %v heap %v", k, wv, hm[k])
					}
				}
			})
		}
	}
}
