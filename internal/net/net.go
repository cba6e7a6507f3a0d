// Package net is the routing layer of the node stack: a CTP-style
// collection tree that replaces app-hardcoded topology with parent
// selection learned from the radio environment.
//
// Each node runs a Router. Routers broadcast periodic beacons carrying a
// sequence number, the node's advertised path ETX (expected transmissions
// to reach the collection root), and its remaining-energy margin. Link ETX
// is estimated from beacon sequence gaps: over a link with packet reception
// ratio p the expected gap between consecutively *heard* beacons is exactly
// 1/p, so an EWMA of the gaps converges to the link's true ETX — the same
// per-link PRR process the medium's delivery tables record, observed from
// inside the network. Parent choice minimizes advertised-plus-link ETX,
// optionally biased against energy-poor parents; a gradient check (a parent
// must strictly decrease the path ETX) keeps the tree loop-free, and a TTL
// on routed data bounds the damage of any transient cycle while beacons
// re-converge.
//
// Deaths become topology events: the Tree subscribes to battery depletions
// and notifies every surviving router, which drops the dead neighbor and
// re-selects its parent — energy-aware rerouting, the behavior that makes
// network lifetime longer than first-parent lifetime.
//
// Determinism: routers consume no randomness at all (beacon phases are
// assigned arithmetically, estimation is pure EWMA), the package's mobility
// models draw only from sim.DeriveRNG streams under "net/"-prefixed domain
// tags, and death notifications are scheduled at fixed offsets after the
// death tick at sim.PrioTopology, so routed runs replay byte-identically
// across -workers.
package net

import (
	"encoding/binary"
	"math"
)

// BeaconAMType is the Active Message type of routing beacons. (13 is the
// relay's data traffic.)
const BeaconAMType uint8 = 14

// BeaconBytes is the beacon payload length on the air.
const BeaconBytes = 5

// etxScale is the fixed-point scale of the wire ETX field (1/16 ETX
// resolution, range up to ~4095 ETX).
const etxScale = 16

// etxInfWire encodes "no route" (a parentless non-root node).
const etxInfWire = 0xFFFF

// Beacon is one decoded routing beacon.
type Beacon struct {
	// Seq increments once per beacon sent (wrapping); receivers estimate
	// link ETX from the gaps between heard values.
	Seq uint16
	// PathETX is the sender's advertised cost to the root in expected
	// transmissions (0 at the root, +Inf when the sender has no route).
	PathETX float64
	// Margin is the sender's remaining-energy fraction in [0, 1].
	Margin float64
}

// encode appends the beacon's wire form: seq (LE uint16), path ETX
// (LE uint16, 1/16 fixed point, 0xFFFF = no route), margin (uint8).
func (b Beacon) encode(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, b.Seq)
	etx := uint16(etxInfWire)
	if !math.IsInf(b.PathETX, 1) {
		v := b.PathETX * etxScale
		if v < 0 {
			v = 0
		}
		if v >= etxInfWire {
			v = etxInfWire - 1
		}
		etx = uint16(v)
	}
	dst = binary.LittleEndian.AppendUint16(dst, etx)
	m := b.Margin
	if m < 0 {
		m = 0
	}
	if m > 1 {
		m = 1
	}
	return append(dst, uint8(m*255))
}

// decodeBeacon parses a beacon payload.
func decodeBeacon(p []byte) (Beacon, bool) {
	if len(p) < BeaconBytes {
		return Beacon{}, false
	}
	b := Beacon{Seq: binary.LittleEndian.Uint16(p)}
	etx := binary.LittleEndian.Uint16(p[2:])
	if etx == etxInfWire {
		b.PathETX = math.Inf(1)
	} else {
		b.PathETX = float64(etx) / etxScale
	}
	b.Margin = float64(p[4]) / 255
	return b, true
}
