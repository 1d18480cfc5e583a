// Rebid attack: Result 2 of the paper.
//
// The Remark 1 condition — no rebidding on items you were outbid on —
// is necessary for consensus. This program removes it (RebidAlways with
// an escalating bid generator) and shows, by exhaustive exploration,
// that consensus is no longer reached within the paper's D·|J| message
// bound: a malicious or misconfigured agent can deny service by
// rebidding forever. The honest control configuration verifies.
//
// Run with: go run ./examples/rebidattack
package main

import (
	"context"
	"fmt"
	"log"

	mcaverify "repro"
)

// specs describes the two bidders on the single item: agent 0 values it
// at 10, agent 1 at 5.
func specs(p0, p1 mcaverify.Policy) []mcaverify.AgentConfig {
	return []mcaverify.AgentConfig{
		{ID: 0, Items: 1, Base: []int64{10}, Policy: p0},
		{ID: 1, Items: 1, Base: []int64{5}, Policy: p1},
	}
}

// check verifies consensus over all interleavings on the explicit-state
// engine.
func check(name string, agents []mcaverify.AgentConfig) mcaverify.Result {
	res := mcaverify.Verify(context.Background(), mcaverify.Scenario{
		Name: name, AgentSpecs: agents, Graph: mcaverify.CompleteGraph(2),
	}, mcaverify.ExplicitEngine{})
	if res.Err != nil {
		log.Fatal(res.Err)
	}
	return res
}

func main() {
	fmt.Println("Result 2: the rebidding attack (one item on auction)")

	// Control: two honest agents. The higher valuation wins, consensus
	// verified over all interleavings.
	honest := mcaverify.Policy{Target: 1, Utility: mcaverify.FlatUtility{}, Rebid: mcaverify.RebidOnChange}
	res := check("honest", specs(honest, honest))
	fmt.Printf("  honest control:        OK=%v (violation=%v, %d states)\n",
		res.Status == mcaverify.ResultHolds, res.Violation, res.Stats.States)

	// Attack: both agents rebid on lost items, overbidding whatever they
	// see (the Remark 1 condition removed from the model).
	attack := mcaverify.Policy{
		Target:  1,
		Utility: mcaverify.EscalatingUtility{Cap: 1 << 20},
		Rebid:   mcaverify.RebidAlways,
	}
	res = check("attack", specs(attack, attack))
	fmt.Printf("  rebidding attack:      OK=%v (violation=%v, %d states)\n",
		res.Status == mcaverify.ResultHolds, res.Violation, res.Stats.States)
	if res.Trace != nil {
		fmt.Println("\n  counterexample prefix (bids escalate without consensus):")
		fmt.Println(res.Trace.Summary())
	}

	// A single attacker against a passive honest agent hijacks the item:
	// consensus happens, but at the attacker's price — the protocol is
	// not incentive-resilient either.
	res = check("single-attacker", specs(honest, attack))
	// The checker reports a verdict, not an allocation; run one concrete
	// execution to show who ends up with the item.
	var agents []*mcaverify.Agent
	for _, cfg := range specs(honest, attack) {
		a, err := mcaverify.NewAgent(cfg)
		if err != nil {
			log.Fatal(err)
		}
		agents = append(agents, a)
	}
	mcaverify.RunAsync(agents, mcaverify.CompleteGraph(2), 7, 500)
	winner := agents[1].View()[0]
	fmt.Printf("  single attacker:       OK=%v — item hijacked by agent %d at bid %d\n",
		res.Status == mcaverify.ResultHolds, winner.Winner, winner.Bid)
}
