package mca

import (
	"slices"
	"testing"
)

// dirtyBuffers returns payload buffers of length 3 whose prefix and
// spare capacity hold junk, as a rewound buffer holds an earlier run's
// payloads.
func dirtyBuffers() ([]BidInfo, []int) {
	views := make([]BidInfo, 64)
	times := make([]int, 64)
	for i := range views {
		views[i] = BidInfo{Bid: 99, Winner: 99, Time: 99}
		times[i] = 99
	}
	return views[:3], times[:3]
}

// TestAppendSnapshotMatchesSnapshotParts: the tails AppendSnapshot
// returns are the payload SnapshotParts builds — for an agent whose id
// lies past its information-time vector (the padding must read 0 over
// a dirty buffer) and for one whose vector reaches past its id after a
// merge — capped at their length, and the buffers' old contents are
// left alone.
func TestAppendSnapshotMatchesSnapshotParts(t *testing.T) {
	pol := Policy{Target: 2, Utility: FlatUtility{}, Rebid: RebidOnChange}
	outbid := Message{Sender: 3, View: []BidInfo{{Winner: NoAgent}, {Bid: 50, Winner: 3, Time: 9}}, InfoTimes: []int{0, 0, 0, 9}}
	for _, tc := range []struct {
		name  string
		id    AgentID
		merge bool
	}{
		{"fresh id past times", 5, false},
		{"merged id past times", 5, true},
		{"merged times past id", 1, true},
	} {
		a := MustNewAgent(Config{ID: tc.id, Items: 2, Base: []int64{10, 30}, Policy: pol})
		a.BidPhase()
		if tc.merge {
			m := outbid
			m.Receiver = tc.id
			a.HandleMessage(m)
		}
		wantView, wantTimes := a.SnapshotParts()
		views, times := dirtyBuffers()
		oldViews, oldTimes := slices.Clone(views), slices.Clone(times)
		view, it, grownViews, grownTimes := a.AppendSnapshot(views, times)
		if !slices.Equal(view, wantView) || !slices.Equal(it, wantTimes) {
			t.Errorf("%s: AppendSnapshot %v %v, SnapshotParts %v %v", tc.name, view, it, wantView, wantTimes)
		}
		if cap(view) != len(view) || cap(it) != len(it) {
			t.Errorf("%s: tails have capacity %d/%d for lengths %d/%d", tc.name, cap(view), cap(it), len(view), len(it))
		}
		if !slices.Equal(grownViews[:len(oldViews)], oldViews) || !slices.Equal(grownTimes[:len(oldTimes)], oldTimes) {
			t.Errorf("%s: AppendSnapshot wrote below the buffers' old lengths", tc.name)
		}
		if !slices.Equal(grownViews[len(oldViews):], view) || !slices.Equal(grownTimes[len(oldTimes):], it) {
			t.Errorf("%s: the grown buffers do not end with the returned tails", tc.name)
		}
		// A second payload lands after the first and leaves it intact.
		a.BidPhase()
		view2, it2, _, _ := a.AppendSnapshot(grownViews, grownTimes)
		if !slices.Equal(view, wantView) || !slices.Equal(it, wantTimes) {
			t.Errorf("%s: a later append moved an earlier payload", tc.name)
		}
		if w2, t2 := a.SnapshotParts(); !slices.Equal(view2, w2) || !slices.Equal(it2, t2) {
			t.Errorf("%s: second AppendSnapshot %v %v, SnapshotParts %v %v", tc.name, view2, it2, w2, t2)
		}
	}
}

// TestSnapshotPartsAllocatesTwice: SnapshotParts grows each of its two
// slices once, including on an agent with no information times yet.
func TestSnapshotPartsAllocatesTwice(t *testing.T) {
	a := MustNewAgent(Config{ID: 4, Items: 3, Base: []int64{10, 30, 20}, Policy: flatPolicy(2)})
	a.BidPhase()
	if n := testing.AllocsPerRun(100, func() { a.SnapshotParts() }); n != 2 {
		t.Fatalf("SnapshotParts: %v allocations, want 2", n)
	}
}

// TestOutbidLeavesCopiesAlone: handleOutbids cuts or splices the bundle
// in place, so a SaveState or Bundle taken before an outbid must not
// share its storage. Outbidding the middle of a three-item bundle
// rewrites the slot after the cut on both policies (the splice shifts
// item 2 down; release-outbid retracts it and the rebid appends it
// back).
func TestOutbidLeavesCopiesAlone(t *testing.T) {
	for _, release := range []bool{false, true} {
		pol := Policy{Target: 3, Utility: FlatUtility{}, Rebid: RebidOnChange, ReleaseOutbid: release}
		a := MustNewAgent(Config{ID: 5, Items: 3, Base: []int64{30, 20, 10}, Policy: pol})
		a.BidPhase()
		saved, bundle := a.SaveState(), a.Bundle()
		wantSaved, wantBundle := slices.Clone(saved.Bundle), slices.Clone(bundle)
		if !slices.Equal(bundle, []ItemID{0, 1, 2}) {
			t.Fatalf("release=%v: setup bundle %v", release, bundle)
		}
		a.HandleMessage(Message{Sender: 3, Receiver: 5, View: []BidInfo{
			{Winner: NoAgent},
			{Bid: 50, Winner: 3, Time: 9},
			{Winner: NoAgent},
		}, InfoTimes: []int{0, 0, 0, 9}})
		if got := a.Bundle(); !slices.Equal(got, []ItemID{0, 2}) {
			t.Fatalf("release=%v: bundle after the outbid %v, want [0 2]", release, got)
		}
		if !slices.Equal(saved.Bundle, wantSaved) || !slices.Equal(bundle, wantBundle) {
			t.Fatalf("release=%v: the outbid rewrote copies taken before it: SaveState %v, Bundle %v", release, saved.Bundle, bundle)
		}
		// The saved state still restores the pre-outbid agent.
		a.RestoreState(saved)
		if got := a.Bundle(); !slices.Equal(got, wantBundle) {
			t.Fatalf("release=%v: restored bundle %v, want %v", release, got, wantBundle)
		}
	}
}
