package apps

import (
	"fmt"

	"repro/internal/am"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/mote"
	"repro/internal/net"
	"repro/internal/radio"
	"repro/internal/traffic"
	"repro/internal/units"
)

// collectTTL is a packet's hop budget in collect mode: enough for the
// longest loop-free route through the line plus the transient detours a
// re-forming tree can take, while still retiring a looping packet within a
// few beacon periods.
func collectTTL(hops int) uint8 {
	t := hops + 3
	if t > 255 {
		t = 255
	}
	return uint8(t)
}

// newCollectRelay is NewRelay's routed twin: the same line of nodes and the
// same origin schedule, but packets follow a collection tree (internal/net)
// rooted at the line's final node instead of the hard-coded next-hop chain.
// The payoff is resilience: when a relay's battery dies — or a mobile node
// drifts out of range — the tree re-forms around the hole and deliveries
// continue, where the fixed chain simply severs.
//
// cfg arrives pre-clamped by NewRelay. Unknown routing planes panic loudly:
// scenario validation gates the strings, so reaching here with a typo is a
// programming error, not an input error.
func newCollectRelay(seed uint64, cfg RelayConfig) *Relay {
	if cfg.Routing != "ctp" {
		panic(fmt.Sprintf("apps: unknown routing plane %q (want \"ctp\")", cfg.Routing))
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

	// The sink collects; in tree terms it is the root and the gradient
	// points at it.
	root := r.Nodes[cfg.Hops-1].ID
	tree, err := net.NewTree(w, net.TreeConfig{Root: root, BeaconPeriod: cfg.BeaconPeriod})
	if err != nil {
		// Unreachable: every node above was built with a radio.
		panic(err)
	}
	r.Tree = tree
	ttl := collectTTL(cfg.Hops)

	acts := make([]core.Label, cfg.Origins)
	for o := 0; o < cfg.Origins; o++ {
		acts[o] = r.Nodes[o].K.DefineActivity("Flood")
	}
	r.Act = acts[0]

	// The send path asks the router for the next hop at send time — the
	// routing decision is per-packet, so a reroute takes effect on the very
	// next generation tick. No parent yet (tree still forming, or re-forming
	// after a death) counts separately from a busy radio: the first is the
	// control plane's lag, the second is offered load beyond capacity.
	//
	// A busy radio parks the packet in a one-deep retry slot instead of
	// dropping outright: the routing layer's beacons share the radio with
	// data on fixed periodic residues, and one unlucky residue pairing
	// would otherwise starve an origin every single period. The slot
	// re-arms on a fixed delay until the radio frees (transmissions are
	// finite, so it always does); packets generated while the slot is held
	// drop — the same single-buffer semantics as the fixed chain, shifted
	// one packet later.
	const busyRetry units.Ticks = 4000
	startGen := func(i int) {
		n := r.Nodes[i]
		rt := tree.Router(i)
		var held bool // the retry slot: one deferred packet at most
		xmit := func() bool {
			parent, ok := rt.Parent()
			if !ok {
				r.noRoute++
				return true
			}
			if n.Radio.Busy() {
				return false
			}
			payload := make([]byte, 8)
			payload[0] = ttl
			out := &am.Packet{Dest: parent, Type: RelayAMType, Payload: payload}
			n.AM.Send(out, nil)
			return true
		}
		var retry *kernel.Timer
		retry = n.K.NewTimer(func() {
			if !xmit() {
				retry.StartOneShot(busyRetry)
				return
			}
			held = false
		})
		send := func() {
			r.generated++
			if held {
				// The single buffer already holds a deferred packet.
				r.dropped++
				return
			}
			if !xmit() {
				held = true
				retry.StartOneShot(busyRetry)
			}
		}
		if cfg.Traffic != nil {
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
		// Same per-origin distinct-residue discipline as the fixed chain,
		// shifted half a period off the beacon chain: timers phase against
		// the node's own boot completion, so without the shift a node's
		// data tick would trail its own beacon tick by a fixed ~millisecond
		// every period and always find the radio mid-beacon. Residual
		// coincidences with other nodes' residues are absorbed by the
		// retry slot above.
		gen.StartPeriodicAfter(r.period+(r.period/2+units.Ticks(2*i+1)*1009)%r.period, r.period)
		n.K.CPUAct.SetIdle()
	}

	// Every node is a potential forwarder — the tree, not the line position,
	// decides who relays. The forward still rides the instrumented queue, so
	// the butterfly-effect accounting follows the packet across whatever
	// route the tree picked.
	for i := range r.Nodes {
		i := i
		n := r.Nodes[i]
		rt := tree.Router(i)
		isRoot := n.ID == root
		n.AM.Register(RelayAMType, func(p *am.Packet) {
			if isRoot {
				r.delivered++
				r.lastDeliveredAt = n.K.Sim.Now()
				n.LEDs.Toggle(1)
				return
			}
			if len(p.Payload) == 0 || p.Payload[0] == 0 {
				// Hop budget exhausted: a transient loop while the tree
				// re-forms. Retire the packet instead of orbiting.
				r.ttlDrops++
				return
			}
			hop := p.Payload[0] - 1
			n.K.Post(func() {
				parent, ok := rt.Parent()
				if !ok {
					r.noRoute++
					return
				}
				if n.Radio.Busy() {
					r.dropped++
					return
				}
				payload := append([]byte(nil), p.Payload...)
				payload[0] = hop
				out := &am.Packet{Dest: parent, Type: RelayAMType, Payload: payload}
				n.AM.Send(out, nil)
			})
		})
	}

	// Boot order mirrors the fixed chain: nodes 2..N first, the first origin
	// last. Each node starts its router once the radio is listening, so the
	// first beacons land on live receivers.
	boot := func(i int) {
		n := r.Nodes[i]
		rt := tree.Router(i)
		n.K.Boot(func() {
			n.Radio.TurnOn(func() {
				n.Radio.StartListening()
				rt.Start()
				if i > 0 && i < cfg.Origins {
					startGen(i)
				}
			})
		})
	}
	for i := 1; i < len(r.Nodes); i++ {
		boot(i)
	}
	r.Nodes[0].K.Boot(func() {
		r.Nodes[0].Radio.TurnOn(func() {
			r.Nodes[0].Radio.StartListening()
			tree.Router(0).Start()
			startGen(0)
		})
	})
	return r
}
