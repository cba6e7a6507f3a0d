package experiments

import (
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/scenario"
	"repro/internal/units"
)

// NetworkFootprint is an additional exhibit beyond the paper's figures: it
// quantifies the "butterfly effect" tracking proposed in Section 5.3 by
// running a multihop relay and measuring how much of the originating
// activity's energy lands on remote nodes. It exists because the paper's own
// evaluation only demonstrates two-node transfer (Bounce); the mechanism
// generalizes unchanged.
func NetworkFootprint(seed uint64) (*Report, error) {
	r := newReport("network", "Network-wide footprint of one activity (4-hop relay)")
	in, err := runScenario(scenario.Spec{App: "relay", Seed: seed, Nodes: 4, DurationUS: int64(20 * units.Second)})
	if err != nil {
		return nil, err
	}
	relay := in.App.(*apps.Relay)

	// Merge every node's log into one time-ordered stream and demux it
	// through per-node streaming analyzers in a single pass.
	net, err := in.Network()
	if err != nil {
		return nil, err
	}

	var sb strings.Builder
	gen, del := relay.Stats()
	fmt.Fprintf(&sb, "Relay line of %d nodes; %d packets generated, %d delivered end-to-end.\n\n",
		len(relay.Nodes), gen, del)
	sb.WriteString(net.Report())

	total := net.EnergyByActivity()[relay.Act]
	remote := net.RemoteEnergyUJ(relay.Act)
	footprint := net.Footprint(relay.Act)
	fmt.Fprintf(&sb, "\nFootprint of %s:\n", relay.World.Dict.LabelName(relay.Act))
	for _, share := range footprint {
		fmt.Fprintf(&sb, "  node %d: %8.3f mJ\n", share.Node, share.EnergyUJ/1000)
	}
	fmt.Fprintf(&sb, "Remote share: %.1f%% of the activity's energy is spent away from its origin.\n",
		100*remote/total)

	r.Text = sb.String()
	r.Values["hops"] = float64(len(relay.Nodes))
	r.Values["generated"] = float64(gen)
	r.Values["delivered"] = float64(del)
	r.Values["total_mJ"] = total / 1000
	r.Values["remote_frac"] = remote / total
	r.Values["nodes_in_footprint"] = float64(len(footprint))
	return r, nil
}
