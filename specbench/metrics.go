package main

// metric declares one reported figure. BENCHMARK.json at the repository
// root repeats the names, units, directions and bounds; the package tests
// keep the two in step.
type metric struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
	// layer is the repository module a per-layer metric measures, and
	// moves the end-to-end metric and workload it should move when that
	// layer changes. Later changes cite these entries by name.
	layer, moves string
}

// endToEnd is printed by an untraced run (--trace 0). Times are host time.
var endToEnd = []metric{
	{name: "wall_s", unit: "s", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "heap_peak_mib", unit: "MiB", better: "lower", bound: 0.15},
	{name: "runs_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "recon_err", unit: "ratio", better: "lower", bound: 0.15},
}

// perLayer is printed by a traced run (--trace 1).
var perLayer = []metric{
	// sim + kernel: the span around Instance.Run.
	{name: "simulate_s", unit: "s", better: "lower", layer: "sim+kernel",
		moves: "wall_s on irq-storm; flat on relay-10k and lifetime-sweep"},
	{name: "sim_events", unit: "count", better: "lower", layer: "sim+kernel",
		moves: "wall_s on irq-storm (a pending-IRQ FIFO cuts it ~30x with identical Result bytes)"},
	{name: "sim_ns_per_event", unit: "ns", better: "lower", layer: "sim+kernel",
		moves: "wall_s on irq-storm"},
	{name: "events_per_entry", unit: "ratio", better: "lower", layer: "sim+kernel",
		moves: "wall_s on irq-storm (>= 20 there, < 2 on ctp-mobile)"},

	// medium / radio / net: simulated statistics read from the Result. A
	// change that only makes the simulator faster must leave them exact.
	{name: "link_attempts", unit: "count", better: "higher", layer: "medium",
		moves: "nothing: simulated; its cost shows in simulate_s on ctp-mobile"},
	{name: "link_prr", unit: "ratio", better: "higher", layer: "medium",
		moves: "nothing: simulated; its cost shows in simulate_s on ctp-mobile"},
	{name: "collisions", unit: "count", better: "lower", layer: "radio",
		moves: "nothing: simulated; its cost shows in simulate_s on ctp-mobile"},
	{name: "net_beacons_tx", unit: "count", better: "lower", layer: "net",
		moves: "nothing: simulated; its cost shows in simulate_s on ctp-mobile"},
	{name: "net_parent_changes", unit: "count", better: "lower", layer: "net",
		moves: "nothing: simulated; its cost shows in simulate_s on ctp-mobile"},
	{name: "delivery_ratio", unit: "ratio", better: "higher", layer: "net",
		moves: "nothing: simulated; its cost shows in simulate_s on ctp-mobile"},

	// trace: a standalone drain of World.Merged().
	{name: "merge_s", unit: "s", better: "lower", layer: "trace",
		moves: "wall_s on relay-10k (10k streams); small on irq-storm (12 streams)"},
	{name: "merge_ns_per_entry", unit: "ns", better: "lower", layer: "trace",
		moves: "wall_s on relay-10k"},

	// analysis: the span around Instance.Network plus standalone calls.
	{name: "analyze_s", unit: "s", better: "lower", layer: "analysis",
		moves: "wall_s on relay-10k and irq-storm"},
	{name: "regress_s", unit: "s", better: "lower", layer: "analysis+linalg",
		moves: "wall_s on relay-10k (10k per-node WLS fits)"},
	{name: "stream_s", unit: "s", better: "lower", layer: "analysis",
		moves: "wall_s on relay-10k"},
	{name: "attribute_s", unit: "s", better: "lower", layer: "analysis",
		moves: "wall_s on relay-10k, ctp-mobile and irq-storm; flat on lifetime-sweep"},
	{name: "attribute_ns_per_segment", unit: "ns", better: "lower", layer: "analysis",
		moves: "wall_s on relay-10k, ctp-mobile and irq-storm"},
	{name: "entries", unit: "count", better: "lower", layer: "analysis",
		moves: "nothing: workload size, the base of the per-entry ratios"},
	{name: "intervals", unit: "count", better: "lower", layer: "analysis",
		moves: "nothing: workload size, the base of regress_s"},
	{name: "state_segments", unit: "count", better: "lower", layer: "analysis",
		moves: "nothing: workload size, a base of attribute_ns_per_segment"},
	{name: "activity_segments", unit: "count", better: "lower", layer: "analysis",
		moves: "nothing: workload size, a base of attribute_ns_per_segment"},

	// scenario: Build, Finish and the Runner.
	{name: "build_s", unit: "s", better: "lower", layer: "scenario",
		moves: "setup_s on relay-10k"},
	{name: "finish_s", unit: "s", better: "lower", layer: "scenario",
		moves: "wall_s on lifetime-sweep and relay-10k"},
	{name: "fold_s", unit: "s", better: "lower", layer: "scenario",
		moves: "wall_s on lifetime-sweep (per-run fixed cost)"},
	{name: "runner_efficiency", unit: "ratio", better: "higher", layer: "scenario",
		moves: "runs_per_s on lifetime-sweep"},

	// memory: Go runtime counters over the Spec→Result path.
	{name: "alloc_mib", unit: "MiB", better: "lower", layer: "memory",
		moves: "heap_peak_mib and wall_s on relay-10k"},
	{name: "gc_cycles", unit: "count", better: "lower", layer: "memory",
		moves: "wall_s on relay-10k"},

	// The trace's own account: traced wall, the part no span covers, the
	// traced-minus-untraced difference, and the host reference timing
	// (a fixed compute-and-memory loop, a diagnostic of host noise).
	{name: "traced_wall_s", unit: "s", better: "lower", layer: "specbench",
		moves: "nothing: the sum the spans account for"},
	{name: "span_remainder_s", unit: "s", better: "lower", layer: "specbench",
		moves: "nothing: traced wall time no span covers"},
	{name: "trace_overhead_s", unit: "s", better: "lower", layer: "specbench",
		moves: "nothing: traced minus untraced wall time"},
	{name: "host_ref_ms", unit: "ms", better: "lower", layer: "host",
		moves: "nothing: host noise diagnostic, not gated"},
}
