package main

import (
	"repro/internal/scenario"
	"repro/internal/traffic"
	"repro/internal/units"
)

// workload is one input set the benchmark drives through the public scenario
// API. Exactly one of spec and matrix is set: spec workloads are timed one
// Spec→Result at a time (a closed loop with one client), the sweep as one
// Matrix→[]Result through scenario.Runner. Every input derives from the
// workload seed alone, and only default Spec fields are used (no queue, no
// partitions), so changes to those mechanisms run against unchanged inputs.
type workload struct {
	name string
	why  string
	// variants is how many specs one input set holds: variant k of seed n
	// runs spec seed n*variants+k. A round runs every variant once, so its
	// figures average over that many placements and traffic draws.
	variants int
	spec     func(seed uint64) scenario.Spec
	matrix   func(seed uint64) scenario.Matrix
}

// specFor returns variant k of the spec workload's input for seed.
func (w *workload) specFor(seed uint64, k int) scenario.Spec {
	return w.spec(seed*uint64(w.variants) + uint64(k))
}

// sweepWorkers is the Runner pool for lifetime-sweep: the 2 vCPUs of the
// machine the benchmark was sized on, fixed so the figures do not change
// meaning with the host's core count.
const sweepWorkers = 2

var workloads = []workload{
	{
		name: "relay-10k",
		why: "10k-node RGG relay with batteries: the only real set-up (Build) and a 10k-way merge; " +
			"attribution is its largest span. 8 origins and 4 seeds a round average out placement luck",
		variants: 4,
		spec:     relay10k,
	},
	{
		name: "irq-storm",
		why: "12-node 4-origin relay line with constant traffic above radio capacity: " +
			"the kernel IRQ re-poll storm, ~29 events per log entry",
		variants: 2,
		spec:     irqStorm,
	},
	{
		name: "ctp-mobile",
		why: "64-node routed (ctp) grid with waypoint mobility: the only path through internal/net " +
			"and Medium.Move, with no storm (<1 event per entry)",
		variants: 8,
		spec:     ctpMobile,
	},
	{
		name: "lifetime-sweep",
		why: "LPL battery x check-period x harvest matrix through Runner: per-run fixed cost and " +
			"deaths dominate, the no-change control for storm, attribution and routing fixes",
		variants: 1,
		matrix:   lifetimeSweep,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// relay10k is the shape of the repository's 10k-node core benchmark (RGG
// placement, 5 ms generation, 50 mAh batteries) with eight origins instead
// of one: each origin floods its own random neighbourhood, so the
// per-seed cost averages over eight placements instead of hanging on one,
// while every origin's neighbours still log enough frames that the
// per-node attribution rescan stays the largest cost of the run.
func relay10k(seed uint64) scenario.Spec {
	return scenario.Spec{
		App:        "relay",
		Seed:       seed,
		Nodes:      10000,
		Origins:    8,
		Placement:  scenario.PlacementRGG,
		PeriodUS:   int64(5 * units.Millisecond),
		DurationUS: int64(3 * units.Second),
		BatteryUAH: 50000,
	}
}

// irqStorm offers 50 packets/s per origin on a broadcast relay line whose
// radio cannot carry it: every backlogged interrupt re-polls the busy CPU,
// so dispatched events outgrow log entries by more than an order of
// magnitude.
func irqStorm(seed uint64) scenario.Spec {
	return scenario.Spec{
		App:        "relay",
		Seed:       seed,
		DurationUS: int64(5 * units.Second),
		Nodes:      12,
		Origins:    4,
		PeriodUS:   int64(100 * units.Millisecond),
		Traffic:    &traffic.Spec{Shape: traffic.ShapeConstant, RPS: 50},
	}
}

// ctpMobile is the routed grid of the networking-layer benchmark at 64
// nodes, every node walking random waypoints at 8 m/s.
func ctpMobile(seed uint64) scenario.Spec {
	return scenario.Spec{
		App:        "relay",
		Seed:       seed,
		DurationUS: int64(5 * units.Second),
		Nodes:      64,
		Origins:    4,
		PeriodUS:   int64(250 * units.Millisecond),
		Placement:  scenario.PlacementGrid,
		Routing:    scenario.RoutingCTP,
		Mobility:   scenario.MobilityWaypoint,
		SpeedMPS:   8,
	}
}

// lifetimeSweep is the lifetime layer's acceptance matrix (battery capacity
// x LPL check period x harvest on/off) replicated over 1536 derived seeds:
// 12288 short runs, roughly half of them ending in a battery death, so one
// sweep lasts seconds.
func lifetimeSweep(seed uint64) scenario.Matrix {
	return scenario.Matrix{
		Base: scenario.Spec{
			App:        "lpl",
			Seed:       seed,
			DurationUS: int64(2 * units.Second),
			Channel:    17,
		},
		Sweep: map[string][]any{
			"battery_uah":     {1.0, 16.0},
			"check_period_us": {250000, 500000},
			"harvest": {
				nil,
				map[string]any{"profile": "periodic", "ua": 2000, "period_us": 100000, "on_us": 30000},
			},
		},
		Seeds: 1536,
	}
}
