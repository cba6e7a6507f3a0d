package net

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mote"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/units"
)

// beaconPhaseStep staggers per-node beacon phases onto distinct residues
// modulo the period. Distinct residues keep two beacon timers from ever
// systematically sharing a tick (the relay's generator discipline); the
// large golden-ratio-like step (~0.61 of a 1 s period) additionally spreads
// the phases across the whole period, so half-duplex radios are not all
// transmitting within the same few milliseconds and deaf to one another.
// The step is even, so with the (even) default periods every beacon lands
// on an even tick — the routed apps put their data generators on odd ticks,
// and a node's beacon can never systematically collide with its own (or any
// node's) data send, which would read the radio busy and drop every period.
const beaconPhaseStep = 611954

// TreeConfig parameterizes a collection tree over a world.
type TreeConfig struct {
	// Root is the collecting node (required).
	Root core.NodeID
	// BeaconPeriod spaces every node's beacons (default DefaultBeaconPeriod).
	BeaconPeriod units.Ticks
	// EnergyWeight biases parent selection against energy-poor parents
	// (zero: DefaultEnergyWeight; negative: no bias).
	EnergyWeight float64
}

// Tree runs one Router per node of a world and turns battery deaths into
// topology events for the survivors.
type Tree struct {
	World   *mote.World
	Root    core.NodeID
	routers []*Router // parallel to World.Nodes
}

// NewTree builds a router for every node already added to the world (each
// must have a radio) and subscribes to deaths. Nodes added later are not
// routed. Call each node's Router.Start from its boot sequence once the
// radio is listening.
func NewTree(w *mote.World, cfg TreeConfig) (*Tree, error) {
	period := cfg.BeaconPeriod
	if period <= 0 {
		period = DefaultBeaconPeriod
	}
	if w.Node(cfg.Root) == nil {
		return nil, fmt.Errorf("net: root %d is not in the world", cfg.Root)
	}
	t := &Tree{World: w, Root: cfg.Root}
	for i, n := range w.Nodes {
		if n.AM == nil {
			return nil, fmt.Errorf("net: node %d has no radio; a routed world needs every node on the air", n.ID)
		}
		rt := NewRouter(n.K, n.AM, n.Radio, Config{
			Root:         n.ID == cfg.Root,
			BeaconPeriod: period,
			Phase:        period + (units.Ticks(i)*beaconPhaseStep)%period,
			EnergyWeight: cfg.EnergyWeight,
		})
		if n.Battery != nil {
			rt.SetMarginFn(n.Battery.MarginFrac)
		}
		t.routers = append(t.routers, rt)
	}
	w.SubscribeDeath(t.onDeath)
	return t, nil
}

// Router returns the router of the i-th node (world creation order).
func (t *Tree) Router(i int) *Router { return t.routers[i] }

// onDeath runs inside the death event. Instead of touching the survivors'
// routers synchronously, it gives each survivor a NeighborDied event at the
// topology priority, radio.BackoffMin after the death plus a per-target
// tick: every notification has a tick of its own, so the schedule is
// tie-free and its order never depends on when the events were armed. The
// delay is part of the routed workload; changing it re-derives every routed
// run with deaths.
func (t *Tree) onDeath(dead *mote.Node, at units.Ticks) {
	for i, n := range t.World.Nodes {
		if n == dead || !n.Alive() {
			continue
		}
		rt := t.routers[i]
		id := dead.ID
		n.K.Sim.Schedule(at+radio.BackoffMin+units.Ticks(i), sim.PrioTopology, func() {
			rt.NeighborDied(id)
		})
	}
}

// TreeStats aggregates every live router's counters plus tree-level shape.
type TreeStats struct {
	RouterStats
	// Routed counts non-root nodes that currently hold a parent.
	Routed int
}

// MeanPathETX averages the path cost over the non-root nodes that hold a
// route (0 when none does): the tree-depth half of the per-hop delivery
// report. Like Stats it only reads.
func (t *Tree) MeanPathETX() float64 {
	var sum float64
	var n int
	for i, node := range t.World.Nodes {
		rt := t.routers[i]
		if node.ID == t.Root || !node.Alive() {
			continue
		}
		if _, ok := rt.Parent(); ok {
			sum += rt.PathETX()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Stats sums the per-node router counters and reports how many nodes have a
// route. Safe to call after (or between) runs — it only reads.
func (t *Tree) Stats() TreeStats {
	var s TreeStats
	for i, n := range t.World.Nodes {
		rt := t.routers[i]
		rs := rt.Stats()
		s.BeaconsTx += rs.BeaconsTx
		s.BeaconsRx += rs.BeaconsRx
		s.BeaconsSkipped += rs.BeaconsSkipped
		s.ParentChanges += rs.ParentChanges
		s.LoopAvoided += rs.LoopAvoided
		// A dead node's router still holds its last parent; only live
		// non-root nodes count as routed.
		if n.ID != t.Root && n.Alive() {
			if _, ok := rt.Parent(); ok {
				s.Routed++
			}
		}
	}
	return s
}
