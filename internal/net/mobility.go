// Mobility models: medium.Mover implementations that make a node's position
// a pure, seed-derived function of simulated time. Both draw exclusively
// from sim.DeriveRNG streams under "net/"-prefixed domain tags keyed by
// node id, so mobile runs replay byte-identically whatever the worker
// count — and adding a mover for node 7 never shifts node 9's path.
package net

import (
	"math"

	"repro/internal/core"
	"repro/internal/medium"
	"repro/internal/sim"
	"repro/internal/units"
)

// MobilityStep is the epoch at which the medium samples movers and patches
// the neighbor index — 250 ms: at pedestrian speeds a step moves a node a
// fraction of a meter, far below the link model's resolution, while keeping
// index maintenance off the per-frame hot path.
const MobilityStep = 250 * units.Millisecond

// fold reflects a coordinate into [0, limit] (triangle wave): walkers bounce
// off the area's walls instead of leaving the deployment.
func fold(x, limit float64) float64 {
	if limit <= 0 {
		return 0
	}
	m := math.Mod(x, 2*limit)
	if m < 0 {
		m += 2 * limit
	}
	if m > limit {
		m = 2*limit - m
	}
	return m
}

// Waypoint is the random-waypoint model: pick a uniform target in the area,
// walk to it in a straight line at constant speed, repeat. Legs materialize
// lazily in time order from the node's own derived stream, so PositionAt is
// a pure function of (seed, id, start, area, speed, t).
type Waypoint struct {
	rng   *sim.RNG
	area  float64
	speed float64 // meters per tick
	legs  []leg
}

// leg is one straight-line segment: from→to over [t0, t1).
type leg struct {
	from, to medium.Position
	t0, t1   units.Ticks
}

// NewWaypoint builds a waypoint walker for one node: start position
// (reflected into the area), area side length in meters, speed in m/s.
func NewWaypoint(seed uint64, id core.NodeID, start medium.Position, areaM, speedMPS float64) *Waypoint {
	w := &Waypoint{
		rng:   sim.DeriveRNG(seed, "net/waypoint", uint64(id)),
		area:  areaM,
		speed: speedMPS / 1e6, // ticks are microseconds
	}
	w.legs = append(w.legs, leg{
		from: medium.Position{X: fold(start.X, areaM), Y: fold(start.Y, areaM)},
	})
	w.legs[0].to = w.legs[0].from
	w.extend() // turn the zero-length seed leg into the first real one
	return w
}

// extend appends the next leg: a fresh uniform target at constant speed.
func (w *Waypoint) extend() {
	last := w.legs[len(w.legs)-1]
	from := last.to
	to := medium.Position{X: w.rng.Float64() * w.area, Y: w.rng.Float64() * w.area}
	dur := units.Ticks(1)
	if w.speed > 0 {
		d := from.Distance(to)
		dur = units.Ticks(d / w.speed)
		if dur < 1 {
			dur = 1
		}
	}
	w.legs = append(w.legs, leg{from: from, to: to, t0: last.t1, t1: last.t1 + dur})
}

// PositionAt returns the walker's position at time t, materializing legs as
// needed. Calls may come out of order (a CCA read at the CPU's busy clock
// can run ahead of the epoch events); earlier times re-read
// already-materialized legs.
func (w *Waypoint) PositionAt(t units.Ticks) medium.Position {
	for w.legs[len(w.legs)-1].t1 <= t {
		w.extend()
	}
	// Binary search for the leg containing t (legs tile time contiguously).
	lo, hi := 0, len(w.legs)
	for lo < hi-1 {
		mid := (lo + hi) / 2
		if w.legs[mid].t0 <= t {
			lo = mid
		} else {
			hi = mid
		}
	}
	l := w.legs[lo]
	if l.t1 == l.t0 {
		return l.to
	}
	f := float64(t-l.t0) / float64(l.t1-l.t0)
	return medium.Position{
		X: l.from.X + (l.to.X-l.from.X)*f,
		Y: l.from.Y + (l.to.Y-l.from.Y)*f,
	}
}

// Drift is the simplest mobile model: one random heading, constant speed
// forever, reflecting off the area walls. Closed form — the single RNG draw
// happens at construction, so PositionAt never mutates and needs no log.
type Drift struct {
	start      medium.Position
	area       float64
	dirX, dirY float64 // meters per tick
}

// NewDrift builds a drifting node: one uniform heading drawn from the
// node's derived stream, speed in m/s.
func NewDrift(seed uint64, id core.NodeID, start medium.Position, areaM, speedMPS float64) *Drift {
	rng := sim.DeriveRNG(seed, "net/drift", uint64(id))
	theta := 2 * math.Pi * rng.Float64()
	v := speedMPS / 1e6
	return &Drift{
		start: medium.Position{X: fold(start.X, areaM), Y: fold(start.Y, areaM)},
		area:  areaM,
		dirX:  math.Cos(theta) * v,
		dirY:  math.Sin(theta) * v,
	}
}

// PositionAt returns the drifter's reflected position at time t.
func (d *Drift) PositionAt(t units.Ticks) medium.Position {
	return medium.Position{
		X: fold(d.start.X+d.dirX*float64(t), d.area),
		Y: fold(d.start.Y+d.dirY*float64(t), d.area),
	}
}
