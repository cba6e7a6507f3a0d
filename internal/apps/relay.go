package apps

import (
	"repro/internal/am"
	"repro/internal/core"
	"repro/internal/mote"
	"repro/internal/net"
	"repro/internal/radio"
	"repro/internal/traffic"
	"repro/internal/units"
)

// RelayAMType is the Active Message type of relayed traffic.
const RelayAMType uint8 = 13

// Relay is a multihop line network demonstrating the paper's "butterfly
// effect" tracking (Section 5.3): a packet originated at the first node is
// forwarded hop by hop to the last, and every hop's work — reception,
// queueing, retransmission, radio time — is charged to the origin's
// activity, because the label rides the packet across every hop.
//
// Forwarding uses an instrumented queue: the saved activity is restored when
// the queued packet is serviced, the paper's "forwarding queues in
// protocols" instrumentation point.
type Relay struct {
	World *mote.World
	Nodes []*mote.Node

	Act core.Label // the first origin's activity ("Flood")

	// Tree is the collection tree routing the packets in collect mode
	// (Routing set); nil on the classic fixed chain.
	Tree *net.Tree

	period    units.Ticks
	generated uint64
	dropped   uint64
	delivered uint64

	// Collect-mode counters: packets dropped for want of a route, packets
	// whose TTL expired (a transient routing loop), and the sink-side
	// timestamp of the last delivery.
	noRoute         uint64
	ttlDrops        uint64
	lastDeliveredAt units.Ticks
}

// RelayConfig parameterizes the line network.
type RelayConfig struct {
	Hops    int // number of nodes in the line (>= 2)
	Channel int
	Period  units.Ticks // packet generation period at each origin
	// Origins is how many nodes at the head of the line generate traffic
	// (nodes 1..Origins, each sending toward the line's end); 0 selects the
	// classic single origin. More origins spread offered load across the
	// topology.
	Origins int
	// Base, when set, seeds each node's mote options before the radio
	// wiring is applied; nil selects mote.DefaultOptions.
	Base *mote.Options
	// PerNode, when set, adjusts each node's options after Base is copied
	// (node ids are 1..Hops). Lifetime scenarios use it to give individual
	// hops different battery capacities.
	PerNode func(id core.NodeID, o *mote.Options)
	// Queue selects the simulator event queue ("" or "wheel": timer wheel;
	// "heap": the legacy binary-heap baseline). Results are identical.
	Queue string
	// Traffic, when non-nil, replaces every origin's fixed-period generation
	// with a shaped schedule: slot i drives origin i (node i+1). Length must
	// be the (clamped) origin count — scenario builders size it with
	// RelayOrigins.
	Traffic []traffic.Source
	// TrafficRec, when non-nil, captures every origin's realized sends
	// (slot i records origin i) for record-and-replay.
	TrafficRec *traffic.Recorder
	// Routing selects the forwarding plane: "" keeps the classic fixed
	// chain — byte-identical to every historical trace — and "ctp" routes
	// packets along a collection tree rooted at the line's final node
	// (internal/net), so topology changes (death, mobility) change where
	// packets flow instead of severing the line.
	Routing string
	// BeaconPeriod spaces the tree's routing beacons in collect mode
	// (default net.DefaultBeaconPeriod). Ignored on the fixed chain.
	BeaconPeriod units.Ticks
}

// RelayOrigins returns the sender node ids a relay config's traffic shape
// drives, applying the same clamps NewRelay applies: origins default to 1
// and never include the line's final node (the sink).
func RelayOrigins(hops, origins int) []core.NodeID {
	if hops < 2 {
		hops = 2
	}
	if origins < 1 {
		origins = 1
	}
	if origins > hops-1 {
		origins = hops - 1
	}
	ids := make([]core.NodeID, origins)
	for i := range ids {
		ids[i] = core.NodeID(i + 1)
	}
	return ids
}

// DefaultRelayConfig builds a 3-hop line generating a packet per second.
func DefaultRelayConfig() RelayConfig {
	return RelayConfig{Hops: 3, Channel: 26, Period: units.Second}
}

// NewRelay builds the line network.
func NewRelay(seed uint64, cfg RelayConfig) *Relay {
	if cfg.Hops < 2 {
		cfg.Hops = 2
	}
	if cfg.Period == 0 {
		cfg.Period = units.Second
	}
	if cfg.Origins < 1 {
		cfg.Origins = 1
	}
	if cfg.Origins > cfg.Hops-1 {
		// The final node is the sink; it never originates.
		cfg.Origins = cfg.Hops - 1
	}
	if cfg.Routing != "" {
		// The routed forwarding plane lives in its own constructor so the
		// classic path below stays byte-identical to every historical trace.
		return newCollectRelay(seed, cfg)
	}
	w := mote.NewWorldQueue(seed, cfg.Queue)
	r := &Relay{World: w, period: cfg.Period}

	for i := 0; i < cfg.Hops; i++ {
		opts := mote.DefaultOptions()
		if cfg.Base != nil {
			opts = *cfg.Base
		}
		if cfg.PerNode != nil {
			cfg.PerNode(core.NodeID(i+1), &opts)
		}
		opts.Radio = true
		opts.RadioConfig = radio.Config{Channel: cfg.Channel}
		r.Nodes = append(r.Nodes, w.AddNode(core.NodeID(i+1), opts))
	}

	// Every origin flies its own "Flood" activity so the butterfly-effect
	// accounting attributes each packet's multi-hop work to its true source.
	acts := make([]core.Label, cfg.Origins)
	for o := 0; o < cfg.Origins; o++ {
		acts[o] = r.Nodes[o].K.DefineActivity("Flood")
	}
	r.Act = acts[0]

	// startGen arms node i's packet generation under its Flood activity;
	// called from the node's TurnOn completion. The send path is shared:
	// count the offered packet, drop it if the radio is still transmitting
	// the previous one (offered load beyond the radio's capacity), otherwise
	// put it on the air.
	startGen := func(i int) {
		n := r.Nodes[i]
		send := func() {
			r.generated++
			if n.Radio.Busy() {
				r.dropped++
				return
			}
			out := &am.Packet{Dest: r.Nodes[i+1].ID, Type: RelayAMType, Payload: make([]byte, 8)}
			n.AM.Send(out, nil)
		}
		if cfg.Traffic != nil {
			// Shaped load: the origin's schedule comes from the traffic
			// engine, armed under the Flood activity so every fire restores
			// it — the same instrumentation the periodic path gets. The
			// engine's per-slot stagger plays the tie-freedom role the
			// periodic path's phase shift plays below.
			var rec func(units.Ticks)
			if cfg.TrafficRec != nil {
				rec = cfg.TrafficRec.Hook(i)
			}
			n.K.CPUAct.Set(acts[i])
			traffic.Drive(n.K, cfg.Traffic[i], rec, send)
			n.K.CPUAct.SetIdle()
			return
		}
		gen := n.K.NewTimer(send)
		n.K.CPUAct.Set(acts[i])
		// Each origin runs the same period at its own phase (origin 0 keeps
		// the classic un-shifted start). Synchronized origins would put many
		// independent transmits on the same tick, ordered only by the order
		// in which their timers happened to be armed; distinct phases keep
		// the send schedule tie-free, and are what real deployments look
		// like anyway. The offsets define the multi-origin workload:
		// changing them re-derives every such run.
		gen.StartPeriodicAfter(r.period+(units.Ticks(i)*1009)%r.period, r.period)
		n.K.CPUAct.SetIdle()
	}

	// Intermediate and final hops (some of which may also originate).
	for i := 1; i < len(r.Nodes); i++ {
		i := i
		n := r.Nodes[i]
		final := i == len(r.Nodes)-1
		n.AM.Register(RelayAMType, func(p *am.Packet) {
			// Runs bound to the origin's activity already.
			if final {
				r.delivered++
				n.LEDs.Toggle(1)
				return
			}
			// Forward through an instrumented queue: Post saves the
			// current (origin's) activity and restores it when the
			// queued entry is serviced. A forwarder still transmitting
			// the previous packet drops the new one — the single-buffer
			// behavior that caps throughput when the generation period
			// approaches the per-hop latency.
			next := r.Nodes[i+1].ID
			n.K.Post(func() {
				if n.Radio.Busy() {
					r.dropped++
					return
				}
				out := &am.Packet{Dest: next, Type: RelayAMType, Payload: p.Payload}
				n.AM.Send(out, nil)
			})
		})
		n.K.Boot(func() {
			n.Radio.TurnOn(func() {
				n.Radio.StartListening()
				if i < cfg.Origins {
					startGen(i)
				}
			})
		})
	}

	// The first origin boots last, preserving the classic single-origin
	// boot sequence (and therefore its traces) exactly.
	r.Nodes[0].K.Boot(func() {
		r.Nodes[0].Radio.TurnOn(func() {
			r.Nodes[0].Radio.StartListening()
			startGen(0)
		})
	})
	return r
}

// Run advances the world and stamps the end.
func (r *Relay) Run(d units.Ticks) {
	r.World.Run(d)
	r.World.StampEnd()
}

// Stats returns packets generated across all origins and delivered at the
// sink.
func (r *Relay) Stats() (generated, delivered uint64) {
	return r.generated, r.delivered
}

// Dropped returns packets discarded because a node's radio was still
// transmitting the previous one (offered load beyond capacity).
func (r *Relay) Dropped() uint64 { return r.dropped }

// NoRoute returns packets dropped because the node had no parent yet (tree
// still forming, or re-forming after a death). Always 0 on the fixed chain.
func (r *Relay) NoRoute() uint64 { return r.noRoute }

// TTLDrops returns packets whose hop budget expired — the data-plane
// backstop against transient routing loops. Always 0 on the fixed chain.
func (r *Relay) TTLDrops() uint64 { return r.ttlDrops }

// LastDeliveredAt returns when the sink last received a packet (0: never).
// The cascade scenarios read it to show deliveries continuing past the
// first relay death.
func (r *Relay) LastDeliveredAt() units.Ticks { return r.lastDeliveredAt }
