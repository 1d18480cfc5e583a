package mca

import (
	"testing"

	"repro/internal/graph"
)

func flatPolicy(target int) Policy {
	return Policy{Target: target, Utility: FlatUtility{}, Rebid: RebidOnChange}
}

func TestNewAgentValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no items", Config{ID: 0, Items: 0, Policy: flatPolicy(1)}},
		{"negative id", Config{ID: -1, Items: 1, Base: []int64{1}, Policy: flatPolicy(1)}},
		{"base mismatch", Config{ID: 0, Items: 2, Base: []int64{1}, Policy: flatPolicy(1)}},
		{"zero target", Config{ID: 0, Items: 1, Base: []int64{1}, Policy: Policy{Utility: FlatUtility{}, Rebid: RebidOnChange}}},
		{"nil utility", Config{ID: 0, Items: 1, Base: []int64{1}, Policy: Policy{Target: 1, Rebid: RebidOnChange}}},
		{"bad rebid", Config{ID: 0, Items: 1, Base: []int64{1}, Policy: Policy{Target: 1, Utility: FlatUtility{}}}},
		{"demand mismatch", Config{ID: 0, Items: 2, Base: []int64{1, 2}, Demands: []int64{1}, Policy: flatPolicy(1)}},
	}
	for _, c := range cases {
		if _, err := NewAgent(c.cfg); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestBidPhaseGreedyOrder(t *testing.T) {
	a := MustNewAgent(Config{ID: 0, Items: 3, Base: []int64{10, 30, 20}, Policy: flatPolicy(3)})
	a.BidPhase()
	b := a.Bundle()
	if len(b) != 3 || b[0] != 1 || b[1] != 2 || b[2] != 0 {
		t.Fatalf("bundle = %v, want [1 2 0] (descending base)", b)
	}
	// Timestamps must be strictly increasing in addition order.
	v := a.View()
	if !(v[1].Time < v[2].Time && v[2].Time < v[0].Time) {
		t.Fatalf("times not increasing: %+v", v)
	}
}

func TestBidPhaseRespectsTarget(t *testing.T) {
	a := MustNewAgent(Config{ID: 0, Items: 3, Base: []int64{10, 30, 20}, Policy: flatPolicy(2)})
	a.BidPhase()
	if len(a.Bundle()) != 2 {
		t.Fatalf("bundle = %v, want 2 items", a.Bundle())
	}
}

func TestBidPhaseRespectsCapacity(t *testing.T) {
	a := MustNewAgent(Config{
		ID: 0, Items: 3, Base: []int64{10, 30, 20},
		Demands: []int64{5, 5, 5}, Capacity: 10,
		Policy: flatPolicy(3),
	})
	a.BidPhase()
	if len(a.Bundle()) != 2 {
		t.Fatalf("bundle = %v, want 2 items under capacity 10 with demand 5", a.Bundle())
	}
}

func TestBidPhaseZeroUtilitySkipped(t *testing.T) {
	a := MustNewAgent(Config{ID: 0, Items: 2, Base: []int64{0, 5}, Policy: flatPolicy(2)})
	a.BidPhase()
	if len(a.Bundle()) != 1 || a.Bundle()[0] != 1 {
		t.Fatalf("bundle = %v, want only item 1", a.Bundle())
	}
}

func TestBidPhaseDoesNotBeatKnownHigherBid(t *testing.T) {
	a := MustNewAgent(Config{ID: 1, Items: 1, Base: []int64{10}, Policy: flatPolicy(1)})
	// Preload a view where agent 0 bid 10 (tie, but 0 < 1 wins ties).
	a.HandleMessage(Message{Sender: 0, Receiver: 1, View: []BidInfo{{Bid: 10, Winner: 0, Time: 1}},
		InfoTimes: []int{1}})
	if len(a.Bundle()) != 0 {
		t.Fatalf("agent 1 should not win a tie against agent 0: %v", a.Bundle())
	}
}

func TestBeatsOrder(t *testing.T) {
	if !Beats(5, 1, BidInfo{Winner: NoAgent}) {
		t.Error("any positive bid beats an empty slot")
	}
	if Beats(0, 1, BidInfo{Winner: NoAgent}) {
		t.Error("zero bid should not claim an empty slot")
	}
	if !Beats(6, 1, BidInfo{Bid: 5, Winner: 0, Time: 1}) {
		t.Error("higher bid must win")
	}
	if Beats(5, 1, BidInfo{Bid: 5, Winner: 0, Time: 1}) {
		t.Error("tie must go to the lower id")
	}
	if !Beats(5, 0, BidInfo{Bid: 5, Winner: 1, Time: 1}) {
		t.Error("tie must go to the lower id (other direction)")
	}
}

// Fig. 1 of the paper: agents 1 and 2 bid on items A, B, C.
// Agent 1 values (10, -, 30); agent 2 values (20, 15, -).
// After one exchange: b = (20, 15, 30), winners = (2, 2, 1).
// Our agents are 0-based: agent 0 = paper's agent 1.
func fig1Agents() (*Agent, *Agent) {
	const items = 3 // A=0, B=1, C=2
	a1 := MustNewAgent(Config{ID: 0, Items: items, Base: []int64{10, 0, 30}, Policy: flatPolicy(2)})
	a2 := MustNewAgent(Config{ID: 1, Items: items, Base: []int64{20, 15, 0}, Policy: flatPolicy(2)})
	return a1, a2
}

func TestFig1BiddingPhase(t *testing.T) {
	a1, a2 := fig1Agents()
	a1.BidPhase()
	a2.BidPhase()
	// Agent 1 bids on A and C, assigning itself as winner (m1 = {A, C}).
	v1 := a1.View()
	if v1[0].Bid != 10 || v1[0].Winner != 0 || v1[2].Bid != 30 || v1[2].Winner != 0 {
		t.Fatalf("agent1 view = %+v", v1)
	}
	if v1[1].Winner != NoAgent {
		t.Fatalf("agent1 should not bid on B: %+v", v1[1])
	}
	// Agent 2 bids on A and B (m2 = {A, B}).
	v2 := a2.View()
	if v2[0].Bid != 20 || v2[0].Winner != 1 || v2[1].Bid != 15 || v2[1].Winner != 1 {
		t.Fatalf("agent2 view = %+v", v2)
	}
}

func TestFig1Agreement(t *testing.T) {
	a1, a2 := fig1Agents()
	a1.BidPhase()
	a2.BidPhase()
	m12 := a1.Snapshot(1)
	m21 := a2.Snapshot(0)
	a1.HandleMessage(m21)
	a2.HandleMessage(m12)

	// Paper's post-agreement state: b = (20, 15, 30), a = (2, 2, 1);
	// agent 1 keeps only C in its bundle, agent 2 keeps A and B.
	for _, a := range []*Agent{a1, a2} {
		v := a.View()
		if v[0].Bid != 20 || v[0].Winner != 1 {
			t.Fatalf("agent%d item A = %+v, want bid 20 winner 1", a.ID(), v[0])
		}
		if v[1].Bid != 15 || v[1].Winner != 1 {
			t.Fatalf("agent%d item B = %+v, want bid 15 winner 1", a.ID(), v[1])
		}
		if v[2].Bid != 30 || v[2].Winner != 0 {
			t.Fatalf("agent%d item C = %+v, want bid 30 winner 0", a.ID(), v[2])
		}
	}
	if !a1.AgreesWith(a2) {
		t.Fatal("agents should agree after one exchange")
	}
	if got := a1.Won(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("agent1 bundle = %v, want {C}", got)
	}
	if got := a2.Won(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("agent2 bundle = %v, want {A, B}", got)
	}
}

func TestOutbidMarksLost(t *testing.T) {
	a1, a2 := fig1Agents()
	a1.BidPhase()
	a2.BidPhase()
	a1.HandleMessage(a2.Snapshot(0))
	lost := a1.Lost()
	if !lost[0] {
		t.Fatal("agent1 must mark item A lost after being outbid (Remark 1)")
	}
	if lost[2] {
		t.Fatal("agent1 still holds C; it must not be lost")
	}
}

func TestReleaseOutbidRetractsSubsequent(t *testing.T) {
	// Agent 0 holds items in order [A, C]; being outbid on A under
	// release-outbid must retract C too (winner reset to NoAgent).
	pol := Policy{Target: 2, Utility: FlatUtility{}, Rebid: RebidOnChange, ReleaseOutbid: true}
	a := MustNewAgent(Config{ID: 5, Items: 2, Base: []int64{10, 30}, Policy: pol})
	a.BidPhase() // bundle = [1 (bid 30), 0 (bid 10)]
	if b := a.Bundle(); len(b) != 2 || b[0] != 1 {
		t.Fatalf("setup bundle = %v", b)
	}
	// Agent 3 outbids item 1 (the first bundle entry) with 50.
	a.HandleMessage(Message{Sender: 3, Receiver: 5, View: []BidInfo{
		{Winner: NoAgent},
		{Bid: 50, Winner: 3, Time: 9},
	}, InfoTimes: []int{0, 0, 0, 9}})
	v := a.View()
	if v[1].Winner != 3 {
		t.Fatalf("item 1 should be won by 3: %+v", v[1])
	}
	// Item 0 was subsequent to the outbid item; with flat utility the
	// agent rebids it immediately after retraction, so it must again be
	// held by agent 5 with a FRESH timestamp later than the retraction.
	if v[0].Winner != 5 {
		t.Fatalf("item 0 should be re-bid by agent 5: %+v", v[0])
	}
	if len(a.Bundle()) != 1 || a.Bundle()[0] != 0 {
		t.Fatalf("bundle after outbid = %v, want [0]", a.Bundle())
	}
}

func TestNoReleaseKeepsSubsequent(t *testing.T) {
	pol := Policy{Target: 2, Utility: FlatUtility{}, Rebid: RebidOnChange, ReleaseOutbid: false}
	a := MustNewAgent(Config{ID: 5, Items: 2, Base: []int64{10, 30}, Policy: pol})
	a.BidPhase()
	before := a.View()[0]
	a.HandleMessage(Message{Sender: 3, Receiver: 5, View: []BidInfo{
		{Winner: NoAgent},
		{Bid: 50, Winner: 3, Time: 9},
	}, InfoTimes: []int{0, 0, 0, 9}})
	after := a.View()[0]
	if after != before {
		t.Fatalf("without release-outbid item 0 must keep its original bid: %+v -> %+v", before, after)
	}
	if len(a.Bundle()) != 1 || a.Bundle()[0] != 0 {
		t.Fatalf("bundle = %v, want [0]", a.Bundle())
	}
}

func TestRebidNeverBlocksForever(t *testing.T) {
	pol := Policy{Target: 1, Utility: FlatUtility{}, Rebid: RebidNever}
	a := MustNewAgent(Config{ID: 1, Items: 1, Base: []int64{10}, Policy: pol})
	a.BidPhase()
	// Outbid by agent 0 with 20, then agent 0 retracts.
	a.HandleMessage(Message{Sender: 0, Receiver: 1, View: []BidInfo{{Bid: 20, Winner: 0, Time: 5}},
		InfoTimes: []int{5}})
	if len(a.Bundle()) != 0 {
		t.Fatal("agent should have lost the item")
	}
	a.HandleMessage(Message{Sender: 0, Receiver: 1, View: []BidInfo{{Winner: NoAgent, Time: 6}},
		InfoTimes: []int{6}})
	if len(a.Bundle()) != 0 {
		t.Fatal("RebidNever agent must not rebid even after retraction")
	}
	if !a.Lost()[0] {
		t.Fatal("lost mark must persist")
	}
}

func TestRebidOnChangeRebidsAfterRetraction(t *testing.T) {
	pol := Policy{Target: 1, Utility: FlatUtility{}, Rebid: RebidOnChange}
	a := MustNewAgent(Config{ID: 1, Items: 1, Base: []int64{10}, Policy: pol})
	a.BidPhase()
	a.HandleMessage(Message{Sender: 0, Receiver: 1, View: []BidInfo{{Bid: 20, Winner: 0, Time: 5}},
		InfoTimes: []int{5}})
	a.HandleMessage(Message{Sender: 0, Receiver: 1, View: []BidInfo{{Winner: NoAgent, Time: 6}},
		InfoTimes: []int{6}})
	if len(a.Bundle()) != 1 {
		t.Fatal("RebidOnChange agent must rebid after the winner retracts")
	}
}

func TestRebidAlwaysIgnoresLost(t *testing.T) {
	pol := Policy{Target: 1, Utility: EscalatingUtility{Cap: 100}, Rebid: RebidAlways}
	a := MustNewAgent(Config{ID: 1, Items: 1, Base: []int64{10}, Policy: pol})
	a.BidPhase()
	if a.View()[0].Bid != 10 {
		t.Fatalf("initial escalating bid = %+v", a.View()[0])
	}
	// Honest agent 0 outbids with 20; the attacker immediately rebids 21.
	a.HandleMessage(Message{Sender: 0, Receiver: 1, View: []BidInfo{{Bid: 20, Winner: 0, Time: 5}},
		InfoTimes: []int{5}})
	v := a.View()[0]
	if v.Winner != 1 || v.Bid != 21 {
		t.Fatalf("attacker should rebid 21: %+v", v)
	}
}

func TestEscalationCap(t *testing.T) {
	pol := Policy{Target: 1, Utility: EscalatingUtility{Cap: 21}, Rebid: RebidAlways}
	a := MustNewAgent(Config{ID: 1, Items: 1, Base: []int64{10}, Policy: pol})
	a.BidPhase()
	a.HandleMessage(Message{Sender: 0, Receiver: 1, View: []BidInfo{{Bid: 21, Winner: 0, Time: 5}},
		InfoTimes: []int{5}})
	// Cap reached: attacker cannot beat 21 by agent 0 (tie, higher id loses).
	if v := a.View()[0]; v.Winner != 0 {
		t.Fatalf("capped attacker must concede: %+v", v)
	}
}

func TestHandleMessageAdvancesClock(t *testing.T) {
	a := MustNewAgent(Config{ID: 0, Items: 1, Base: []int64{1}, Policy: flatPolicy(1)})
	a.HandleMessage(Message{Sender: 1, Receiver: 0, View: []BidInfo{{Bid: 5, Winner: 1, Time: 42}},
		InfoTimes: []int{0, 42}})
	if a.Clock() < 42 {
		t.Fatalf("clock = %d, must be >= 42", a.Clock())
	}
}

func TestHandleMessageWrongLengthPanics(t *testing.T) {
	a := MustNewAgent(Config{ID: 0, Items: 2, Base: []int64{1, 1}, Policy: flatPolicy(1)})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on view length mismatch")
		}
	}()
	a.HandleMessage(Message{Sender: 1, Receiver: 0, View: []BidInfo{{}}})
}

func TestMessageClone(t *testing.T) {
	m := Message{Sender: 0, Receiver: 1, View: []BidInfo{{Bid: 1, Winner: 0, Time: 1}}}
	c := m.Clone()
	c.View[0].Bid = 99
	if m.View[0].Bid != 1 {
		t.Fatal("Clone must deep-copy the view")
	}
}

func TestSubmodularityOfUtilities(t *testing.T) {
	base := []int64{12, 8, 20, 16}
	bundles := [][]ItemID{{}, {0}, {0, 1}, {0, 1, 2}}
	subs := []Utility{SubmodularResidual{}, SubmodularResidual{Decay: 8}, FlatUtility{}}
	for _, u := range subs {
		if !u.Submodular() {
			t.Errorf("%s must report submodular", u.Name())
		}
		for j := ItemID(0); j < 4; j++ {
			prev := int64(1 << 62)
			for _, m := range bundles {
				v := u.Marginal(base, j, m, BidInfo{})
				if v > prev {
					t.Errorf("%s: marginal of item %d increased from %d to %d as bundle grew", u.Name(), j, prev, v)
				}
				prev = v
			}
		}
	}
	nonsub := NonSubmodularSynergy{}
	if nonsub.Submodular() {
		t.Error("synergy utility must report non-submodular")
	}
	grew := false
	for _, m := range bundles[1:] {
		if nonsub.Marginal(base, 0, m, BidInfo{}) > nonsub.Marginal(base, 0, nil, BidInfo{}) {
			grew = true
		}
	}
	if !grew {
		t.Error("synergy utility must grow with bundle size somewhere")
	}
}

// TestUtilityNames: each utility's Name is its kind, the token scenario
// documents and generator profiles spell it with.
func TestUtilityNames(t *testing.T) {
	for i, u := range []Utility{SubmodularResidual{}, NonSubmodularSynergy{}, FlatUtility{}, EscalatingUtility{}} {
		if u.Name() != UtilityKinds[i] {
			t.Errorf("%T: name %q, want its kind %q", u, u.Name(), UtilityKinds[i])
		}
	}
}

func TestRebidModeStrings(t *testing.T) {
	for _, m := range []RebidMode{RebidOnChange, RebidNever, RebidAlways, RebidMode(9)} {
		if m.String() == "" {
			t.Errorf("empty string for mode %d", int(m))
		}
	}
}

func TestActionStrings(t *testing.T) {
	for _, a := range []Action{ActionLeave, ActionUpdate, ActionReset, Action(0)} {
		if a.String() == "" {
			t.Errorf("empty string for action %d", int(a))
		}
	}
}

func TestAllocationHelpers(t *testing.T) {
	al := Allocation{NoAgent, 1, 0}
	if al.Assigned() != 2 {
		t.Errorf("assigned = %d", al.Assigned())
	}
	if al.String() == "" {
		t.Error("empty allocation string")
	}
}

func TestBidsPerRoundCapsBundleGrowth(t *testing.T) {
	pol := Policy{Target: 3, Utility: FlatUtility{}, Rebid: RebidOnChange, BidsPerRound: 1}
	a := MustNewAgent(Config{ID: 0, Items: 3, Base: []int64{10, 30, 20}, Policy: pol})
	a.BidPhase()
	if got := a.Bundle(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("bundle = %v, want just the best item", got)
	}
	a.BidPhase()
	if got := a.Bundle(); len(got) != 2 {
		t.Fatalf("second phase should add one more item: %v", got)
	}
}

func TestBidsPerRoundZeroUnlimited(t *testing.T) {
	pol := Policy{Target: 3, Utility: FlatUtility{}, Rebid: RebidOnChange}
	a := MustNewAgent(Config{ID: 0, Items: 3, Base: []int64{10, 30, 20}, Policy: pol})
	a.BidPhase()
	if len(a.Bundle()) != 3 {
		t.Fatalf("unlimited phase should fill the bundle: %v", a.Bundle())
	}
}

func TestBidsPerRoundNegativeRejected(t *testing.T) {
	pol := Policy{Target: 1, Utility: FlatUtility{}, Rebid: RebidOnChange, BidsPerRound: -1}
	if _, err := NewAgent(Config{ID: 0, Items: 1, Base: []int64{1}, Policy: pol}); err == nil {
		t.Fatal("negative BidsPerRound accepted")
	}
}

func TestBidsPerRoundStillConverges(t *testing.T) {
	pol := Policy{Target: 2, Utility: SubmodularResidual{}, Rebid: RebidOnChange,
		ReleaseOutbid: true, BidsPerRound: 1}
	agents := []*Agent{
		MustNewAgent(Config{ID: 0, Items: 2, Base: []int64{10, 15}, Policy: pol}),
		MustNewAgent(Config{ID: 1, Items: 2, Base: []int64{15, 10}, Policy: pol}),
	}
	r, err := NewSyncRunner(agents, graph.Complete(2))
	if err != nil {
		t.Fatal(err)
	}
	out := r.Run(40)
	if !out.Converged {
		t.Fatalf("single-bid-per-round pair did not converge: %+v", out)
	}
	if !r.ConflictFree() {
		t.Fatal("conflicting allocation")
	}
}
