// Package traffic is the synthetic offered-load engine: it turns a small
// declarative Spec into deterministic per-node send schedules, so every app
// can be driven by shaped load — constant RPS, invitro-style ramps, bursts,
// diurnal cycles, heavy-tailed ON/OFF sources — instead of the fixed-period
// traffic it was born with, and so one run's realized schedule can be
// recorded and replayed against a different radio/battery/placement
// configuration for apples-to-apples energy comparisons.
//
// Determinism is the package's contract, inherited from the scenario layer:
//
//   - Every sender draws randomness only from its own private stream, derived
//     from the run seed and the sender's node id. Shapes never touch the
//     world's RNG, so a shaped run consumes exactly the same backoff /
//     interference / ripple draws as an unshaped one, and a replayed run
//     (which consumes no traffic randomness at all) is byte-identical to the
//     shaped run that recorded it.
//   - Generated schedules are phase-staggered onto disjoint tick residues:
//     sender slot i only ever sends on ticks ≡ i (mod number-of-senders), so
//     no two senders can share a send tick. Same-tick sends from independent
//     senders would be ordered only by the order their timers happened to
//     be armed; the stagger makes shaped load tie-free by construction, for
//     any shape, any seed. The residues are part of every shaped workload:
//     changing the stagger re-derives every shaped run.
//   - Replay sources bypass the stagger: their times were recorded from an
//     already tie-free run and must be re-armed exactly as written.
//
// The record format is JSONL — a `{"quanto_traffic":1}` header line followed
// by one `{"node":N,"at_us":T}` object per send, sorted by (at_us, node) —
// chosen so traces diff cleanly, concatenate trivially, and parse with
// errors rather than crashes on malformed input (FuzzTraceReplayParse pins
// that).
package traffic

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/units"
)

// Source is one sender's schedule: successive Next calls return the sender's
// send ticks in strictly increasing order; ok=false ends the schedule.
// Sources are single-goroutine objects owned by their node's event context.
type Source interface {
	Next() (units.Ticks, bool)
}

// Shape builds per-sender sources. slot is the sender's dense 0-based index
// among the run's shaped senders (it drives the tie-freedom stagger), id its
// world node id (it drives replay lookup and RNG stream derivation), rng the
// sender's private stream — implementations must draw randomness only from
// it.
type Shape interface {
	Source(slot, id int, rng *sim.RNG) Source
}

// Shape names for Spec.Shape.
const (
	ShapeConstant = "constant"
	ShapeRamp     = "ramp"
	ShapeBurst    = "burst"
	ShapeDiurnal  = "diurnal"
	ShapeOnOff    = "onoff"
	ShapeReplay   = "replay"
)

// Spec is the declarative, JSON-stable form of a traffic shape — the value
// of the scenario spec's "traffic" field, and therefore sweepable like any
// other field. All rates are per-sender sends per second; all durations are
// simulated microseconds.
type Spec struct {
	// Shape selects the generator: "constant", "ramp", "burst", "diurnal",
	// "onoff", or "replay". Required.
	Shape string `json:"shape"`

	// RPS is the sends-per-second rate: the whole schedule for "constant",
	// the between-burst floor for "burst" (0 keeps the channel silent
	// between bursts), the in-ON-period rate for "onoff", and the cycle
	// mean for "diurnal".
	RPS float64 `json:"rps,omitempty"`

	// StartRPS/StepRPS/TargetRPS/SlotUS shape the "ramp": the rate starts
	// at StartRPS, increases by StepRPS every SlotUS, and holds at
	// TargetRPS once reached — the invitro trace-synthesizer contract
	// (start / step / target RPS over fixed slots).
	StartRPS  float64 `json:"start_rps,omitempty"`
	StepRPS   float64 `json:"step_rps,omitempty"`
	TargetRPS float64 `json:"target_rps,omitempty"`
	SlotUS    int64   `json:"slot_us,omitempty"`

	// BurstRPS/BurstUS/PeriodUS shape the "burst": every PeriodUS, the rate
	// jumps to BurstRPS for the first BurstUS, then falls back to RPS.
	// PeriodUS is also the "diurnal" cycle length.
	BurstRPS float64 `json:"burst_rps,omitempty"`
	BurstUS  int64   `json:"burst_us,omitempty"`
	PeriodUS int64   `json:"period_us,omitempty"`

	// DepthFrac is the "diurnal" swing: the rate follows
	// RPS·(1 − DepthFrac·cos(2πt/PeriodUS)), trough at t=0, peak half a
	// cycle in. 0 selects 0.8; valid (0, 1).
	DepthFrac float64 `json:"depth_frac,omitempty"`

	// OnAlpha/OffAlpha/OnMinUS/OffMinUS shape the "onoff" source: ON and
	// OFF dwell times are Pareto(alpha, min) draws from the sender's
	// private stream — the heavy-tailed dwell model — and the sender emits
	// at RPS while ON. Alphas default to 1.5; minimums to 1 s (ON) and 2 s
	// (OFF). Alphas in (1, 2] give finite-mean, infinite-variance dwells,
	// the classic self-similar-load regime.
	OnAlpha  float64 `json:"on_alpha,omitempty"`
	OffAlpha float64 `json:"off_alpha,omitempty"`
	OnMinUS  int64   `json:"on_min_us,omitempty"`
	OffMinUS int64   `json:"off_min_us,omitempty"`

	// File is the "replay" trace path: a JSONL schedule previously written
	// by the recorder (`quanto-trace record`). Each sender re-arms exactly
	// the recorded ticks for its node id; senders absent from the trace
	// stay silent. Relative paths resolve against the process working
	// directory.
	File string `json:"file,omitempty"`
}

// Defaults for the onoff shape's dwell distributions.
const (
	defaultAlpha    = 1.5
	defaultOnMinUS  = int64(units.Second)
	defaultOffMinUS = int64(2 * units.Second)
	defaultDepth    = 0.8
)

// paretoCapUS bounds a single Pareto dwell draw (~18.6 min). Heavy tails are
// the point of the onoff shape, but an unbounded draw can eat a whole run in
// one OFF period; the cap keeps tails long while keeping every seed's run
// observable.
const paretoCapUS = int64(1) << 30

// Validate checks the spec the way scenario.Spec.Validate checks its fields:
// loudly, before any run starts.
func (s *Spec) Validate() error {
	switch s.Shape {
	case ShapeConstant:
		if s.RPS <= 0 {
			return fmt.Errorf("traffic: constant shape needs rps > 0, got %v", s.RPS)
		}
	case ShapeRamp:
		if s.StartRPS <= 0 || s.StepRPS <= 0 || s.TargetRPS < s.StartRPS || s.SlotUS <= 0 {
			return fmt.Errorf("traffic: ramp needs start_rps > 0, step_rps > 0, target_rps >= start_rps and slot_us > 0")
		}
	case ShapeBurst:
		if s.BurstRPS <= 0 || s.BurstUS <= 0 || s.PeriodUS <= s.BurstUS {
			return fmt.Errorf("traffic: burst needs burst_rps > 0, burst_us > 0 and period_us > burst_us")
		}
		if s.RPS < 0 {
			return fmt.Errorf("traffic: burst floor rps must be >= 0, got %v", s.RPS)
		}
	case ShapeDiurnal:
		if s.RPS <= 0 || s.PeriodUS <= 0 {
			return fmt.Errorf("traffic: diurnal needs rps > 0 and period_us > 0")
		}
		if s.DepthFrac != 0 && (s.DepthFrac <= 0 || s.DepthFrac >= 1) {
			return fmt.Errorf("traffic: depth_frac must be in (0, 1) (or 0 for the default), got %v", s.DepthFrac)
		}
	case ShapeOnOff:
		if s.RPS <= 0 {
			return fmt.Errorf("traffic: onoff needs rps > 0, got %v", s.RPS)
		}
		if s.OnAlpha < 0 || s.OffAlpha < 0 || s.OnMinUS < 0 || s.OffMinUS < 0 {
			return fmt.Errorf("traffic: onoff alphas and minimum dwells must be >= 0")
		}
		if (s.OnAlpha != 0 && s.OnAlpha <= 1) || (s.OffAlpha != 0 && s.OffAlpha <= 1) {
			return fmt.Errorf("traffic: onoff alphas must be > 1 for finite mean dwells (or 0 for the default)")
		}
	case ShapeReplay:
		if s.File == "" {
			return fmt.Errorf("traffic: replay needs a file")
		}
	case "":
		return fmt.Errorf("traffic: spec has no shape")
	default:
		return fmt.Errorf("traffic: unknown shape %q (want %q, %q, %q, %q, %q or %q)", s.Shape,
			ShapeConstant, ShapeRamp, ShapeBurst, ShapeDiurnal, ShapeOnOff, ShapeReplay)
	}
	return nil
}

// NewShape builds the spec's generator. Replay specs read their trace file
// here, once per run, so a sweep touching many replay runs pays the parse
// per run, not per sender.
func (s *Spec) NewShape() (Shape, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	switch s.Shape {
	case ShapeConstant:
		return constantShape{rps: s.RPS}, nil
	case ShapeRamp:
		return rampShape{start: s.StartRPS, step: s.StepRPS, target: s.TargetRPS, slot: s.SlotUS}, nil
	case ShapeBurst:
		return burstShape{floor: s.RPS, burst: s.BurstRPS, burstUS: s.BurstUS, periodUS: s.PeriodUS}, nil
	case ShapeDiurnal:
		d := s.DepthFrac
		if d == 0 {
			d = defaultDepth
		}
		return diurnalShape{mean: s.RPS, depth: d, periodUS: s.PeriodUS}, nil
	case ShapeOnOff:
		sh := onOffShape{
			rps:    s.RPS,
			onA:    s.OnAlpha,
			offA:   s.OffAlpha,
			onMin:  s.OnMinUS,
			offMin: s.OffMinUS,
		}
		if sh.onA == 0 {
			sh.onA = defaultAlpha
		}
		if sh.offA == 0 {
			sh.offA = defaultAlpha
		}
		if sh.onMin == 0 {
			sh.onMin = defaultOnMinUS
		}
		if sh.offMin == 0 {
			sh.offMin = defaultOffMinUS
		}
		return sh, nil
	case ShapeReplay:
		return LoadTrace(s.File)
	}
	// Validate covered every shape; this is unreachable.
	return nil, fmt.Errorf("traffic: unknown shape %q", s.Shape)
}

// Sources builds the run's per-sender schedules: one source per sender id,
// each on a private RNG stream derived from the run seed under the
// "traffic/sender" domain tag with the sender's node id as salt — so traffic
// streams are decorrelated from every other consumer of the run seed
// (spatial layout, channel loss, backoff) and from each other. Each
// generated schedule is staggered onto tick residue slot (mod len(ids)) so
// no two senders ever share a send tick. Replay schedules pass through
// unstaggered — their ticks were recorded from an already tie-free run and
// must re-arm exactly.
func Sources(sp *Spec, seed uint64, ids []core.NodeID) ([]Source, error) {
	shape, err := sp.NewShape()
	if err != nil {
		return nil, err
	}
	out := make([]Source, len(ids))
	for slot, id := range ids {
		rng := sim.DeriveRNG(seed, "traffic/sender", uint64(id))
		src := shape.Source(slot, int(id), rng)
		if sp.Shape != ShapeReplay {
			src = &staggered{src: src, slot: units.Ticks(slot), stride: units.Ticks(len(ids))}
		}
		out[slot] = src
	}
	return out, nil
}

// staggered maps a raw schedule onto the slot's tick residue class: every
// emitted tick ≡ slot (mod stride), each within stride ticks of the raw
// time, successive ticks at least stride apart. With senders on disjoint
// residues, two senders can never share a send tick, so the schedule is
// tie-free and deterministic, at a worst-case timing cost of
// number-of-senders microseconds, far below a frame's airtime.
type staggered struct {
	src          Source
	slot, stride units.Ticks
	last         units.Ticks
}

func (s *staggered) Next() (units.Ticks, bool) {
	t, ok := s.src.Next()
	if !ok {
		return 0, false
	}
	q := t - t%s.stride + s.slot
	if q <= s.last {
		q = s.last + s.stride
	}
	s.last = q
	return q, true
}

// rate-driven sources: the generic schedule stepper walks simulated time in
// float microseconds, spacing sends 1e6/rate(t) apart, with a 1 µs floor so
// the integer tick sequence stays strictly increasing. Rates are evaluated
// at the previous send, which makes the schedule an explicit-Euler walk of
// the rate curve — exact for piecewise-constant shapes away from their
// boundaries, and deterministically approximate within one inter-send gap
// of them.

func stepAt(t, rate float64) float64 {
	dt := 1e6 / rate
	if dt < 1 {
		dt = 1
	}
	return t + dt
}

type constantShape struct{ rps float64 }

func (c constantShape) Source(slot, id int, rng *sim.RNG) Source {
	return &rateSource{rate: func(float64) float64 { return c.rps }}
}

type rampShape struct {
	start, step, target float64
	slot                int64
}

func (r rampShape) Source(slot, id int, rng *sim.RNG) Source {
	return &rateSource{rate: func(t float64) float64 {
		rate := r.start + float64(int64(t)/r.slot)*r.step
		if rate > r.target {
			rate = r.target
		}
		return rate
	}}
}

type diurnalShape struct {
	mean, depth float64
	periodUS    int64
}

func (d diurnalShape) Source(slot, id int, rng *sim.RNG) Source {
	return &rateSource{rate: func(t float64) float64 {
		phase := 2 * math.Pi * math.Mod(t, float64(d.periodUS)) / float64(d.periodUS)
		return d.mean * (1 - d.depth*math.Cos(phase))
	}}
}

// rateSource emits sends 1e6/rate(t) µs apart for an always-positive rate
// curve.
type rateSource struct {
	t    float64
	rate func(t float64) float64
}

func (r *rateSource) Next() (units.Ticks, bool) {
	r.t = stepAt(r.t, r.rate(r.t))
	if r.t > math.MaxInt64/2 {
		return 0, false
	}
	return units.Ticks(r.t), true
}

// burstShape alternates a floor rate and a burst rate on a fixed cycle; a
// zero floor skips straight to the next burst window.
type burstShape struct {
	floor, burst      float64
	burstUS, periodUS int64
}

func (b burstShape) Source(slot, id int, rng *sim.RNG) Source {
	return &burstSource{sh: b}
}

type burstSource struct {
	sh burstShape
	t  float64
}

func (b *burstSource) Next() (units.Ticks, bool) {
	for {
		pos := int64(b.t) % b.sh.periodUS
		switch {
		case pos < b.sh.burstUS:
			b.t = stepAt(b.t, b.sh.burst)
		case b.sh.floor > 0:
			b.t = stepAt(b.t, b.sh.floor)
		default:
			// Silent floor: jump to the next burst window.
			b.t = b.t - float64(pos) + float64(b.sh.periodUS)
			continue
		}
		if b.t > math.MaxInt64/2 {
			return 0, false
		}
		return units.Ticks(b.t), true
	}
}

// onOffShape emits at a fixed rate during Pareto-distributed ON dwells
// separated by Pareto-distributed OFF dwells, both drawn from the sender's
// private stream.
type onOffShape struct {
	rps           float64
	onA, offA     float64
	onMin, offMin int64
}

func (o onOffShape) Source(slot, id int, rng *sim.RNG) Source {
	s := &onOffSource{sh: o, rng: rng}
	s.onEnd = float64(s.pareto(o.onA, o.onMin))
	return s
}

type onOffSource struct {
	sh    onOffShape
	rng   *sim.RNG
	t     float64
	onEnd float64
}

// pareto draws a Pareto(alpha, min) dwell, capped at paretoCapUS.
func (s *onOffSource) pareto(alpha float64, minUS int64) int64 {
	u := 1 - s.rng.Float64() // (0, 1]
	d := float64(minUS) * math.Pow(u, -1/alpha)
	if d > float64(paretoCapUS) {
		d = float64(paretoCapUS)
	}
	return int64(d)
}

func (s *onOffSource) Next() (units.Ticks, bool) {
	for {
		next := stepAt(s.t, s.sh.rps)
		if next <= s.onEnd {
			s.t = next
			return units.Ticks(s.t), true
		}
		// The ON dwell is over: sleep an OFF dwell, then start a fresh ON
		// dwell. Draw order is fixed (off, then on) so the stream replays
		// identically for a given seed.
		off := s.pareto(s.sh.offA, s.sh.offMin)
		on := s.pareto(s.sh.onA, s.sh.onMin)
		s.t = s.onEnd + float64(off)
		s.onEnd = s.t + float64(on)
		if s.t > math.MaxInt64/2 {
			return 0, false
		}
	}
}
