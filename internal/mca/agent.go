package mca

import (
	"fmt"
	"sort"
)

// Resolver decides per-item merge actions; Resolve is the default, and
// MaxMergeResolve the ablation variant.
type Resolver func(receiver, sender AgentID, local, remote BidInfo, fr Freshness) Action

// Config constructs an Agent.
type Config struct {
	ID    AgentID
	Items int
	// Base holds the agent's private valuation of each item (u_i).
	Base []int64
	// Policy instantiates the variant protocol aspects.
	Policy Policy
	// Demands optionally gives each item a capacity demand; nil means
	// demand 1 per item.
	Demands []int64
	// Capacity optionally caps the total demand of the bundle (the
	// pcapacity fact of the case study); 0 means unconstrained.
	Capacity int64
	// Resolver overrides the conflict resolution rule; nil means the full
	// asynchronous table (Resolve).
	Resolver Resolver
}

// Agent is one MCA participant: a pure, deterministic state machine.
// External code drives it with BidPhase and HandleMessage and ships its
// Snapshot views around; all nondeterminism (message ordering) lives in
// the network layer, which is what the model checker exhaustively
// explores.
type Agent struct {
	id       AgentID
	items    int
	base     []int64
	policy   Policy
	demands  []int64
	capacity int64
	resolve  Resolver

	view   []BidInfo // b, a (winners), t vectors of the paper
	bundle []ItemID  // m vector: items currently held, in addition order
	clock  int       // logical bid-generation clock

	// Remark 1 bookkeeping: blocked[j] marks items the agent was outbid
	// on, and block[j] records the claim that beat it. RebidOnChange
	// clears the mark when the standing claim changes.
	blocked []bool
	block   []BidInfo

	// infoTime[m] is the logical time of the latest information this
	// agent has about agent m (the s vector of the CBBA conflict
	// resolution rules). Stored as a dense slice indexed by AgentID,
	// grown on demand; an index beyond the slice means 0 ("never heard
	// of m"), and stored entries are always positive — HandleMessage only
	// records times that beat the current (non-negative) value.
	infoTime []int

	// digest caches ContentHash; zero means not computed. Every entry
	// point that can modify the agent drops it (HandleMessage, BidPhase,
	// DecodeState) or replaces it with the saved state's (RestoreState,
	// Undo).
	digest [2]uint64
	// key caches the time-dependent part of the agent's canonical key
	// digest. The same entry points drop it, and so does RestoreState,
	// because a saved state's times may have been edited; only Undo
	// hands back the one SaveStateInto saved.
	key agentKeyCache
}

// agentKeyCache is the time-dependent half of an agent's key cache: the
// span of its timestamps (TimeSpan; empty when not computed) and its
// KeyDigest under the last one-word ranker it was asked for.
type agentKeyCache struct {
	span   TimeSpan
	digest KeyCache
}

// Validate checks that the configuration describes an agent: it is
// everything NewAgent requires, without building one.
func (cfg Config) Validate() error {
	if cfg.Items <= 0 {
		return fmt.Errorf("mca: agent %d: item count %d must be positive", cfg.ID, cfg.Items)
	}
	if cfg.ID < 0 {
		return fmt.Errorf("mca: negative agent id %d", cfg.ID)
	}
	if len(cfg.Base) != cfg.Items {
		return fmt.Errorf("mca: agent %d: %d base valuations for %d items", cfg.ID, len(cfg.Base), cfg.Items)
	}
	if err := cfg.Policy.Validate(); err != nil {
		return fmt.Errorf("mca: agent %d: %w", cfg.ID, err)
	}
	if cfg.Demands != nil && len(cfg.Demands) != cfg.Items {
		return fmt.Errorf("mca: agent %d: %d demands for %d items", cfg.ID, len(cfg.Demands), cfg.Items)
	}
	return nil
}

// NewAgent validates the configuration and builds the agent.
func NewAgent(cfg Config) (*Agent, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a := &Agent{
		id:       cfg.ID,
		items:    cfg.Items,
		base:     append([]int64(nil), cfg.Base...),
		policy:   cfg.Policy,
		capacity: cfg.Capacity,
		resolve:  cfg.Resolver,
		view:     make([]BidInfo, cfg.Items),
		blocked:  make([]bool, cfg.Items),
		block:    make([]BidInfo, cfg.Items),
	}
	if cfg.Demands != nil {
		a.demands = append([]int64(nil), cfg.Demands...)
	}
	if a.resolve == nil {
		a.resolve = Resolve
	}
	for j := range a.view {
		a.view[j] = BidInfo{Winner: NoAgent}
	}
	return a, nil
}

// Clone returns an independent deep copy of the agent: same
// configuration, same current state, no shared mutable storage. The
// parallel explorer gives each worker its own replica set so workers
// can replay states concurrently without locking.
func (a *Agent) Clone() *Agent {
	c := &Agent{
		id:       a.id,
		items:    a.items,
		base:     append([]int64(nil), a.base...),
		policy:   a.policy,
		capacity: a.capacity,
		resolve:  a.resolve,
		view:     append([]BidInfo(nil), a.view...),
		bundle:   append([]ItemID(nil), a.bundle...),
		clock:    a.clock,
		blocked:  append([]bool(nil), a.blocked...),
		block:    append([]BidInfo(nil), a.block...),
		infoTime: append([]int(nil), a.infoTime...),
		digest:   a.digest,
		key:      a.key,
	}
	if a.demands != nil {
		c.demands = append([]int64(nil), a.demands...)
	}
	return c
}

// MustNewAgent is NewAgent for static configurations known to be valid.
func MustNewAgent(cfg Config) *Agent {
	a, err := NewAgent(cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// ID returns the agent's identifier.
func (a *Agent) ID() AgentID { return a.id }

// Policy returns the agent's policy.
func (a *Agent) Policy() Policy { return a.policy }

// View returns a copy of the agent's current view (b, winners, t).
func (a *Agent) View() []BidInfo { return append([]BidInfo(nil), a.view...) }

// Bundle returns a copy of the agent's bundle (m vector).
func (a *Agent) Bundle() []ItemID { return append([]ItemID(nil), a.bundle...) }

// Clock returns the agent's logical bid clock.
func (a *Agent) Clock() int { return a.clock }

// Lost returns a copy of the outbid bookkeeping: true entries are items
// the agent is currently barred from rebidding (Remark 1).
func (a *Agent) Lost() []bool { return append([]bool(nil), a.blocked...) }

// Snapshot builds the bid message this agent would broadcast: its full
// current view plus its information-timestamp vector, per the paper's
// message signature.
func (a *Agent) Snapshot(to AgentID) Message {
	view, it := a.SnapshotParts()
	return Message{Sender: a.id, Receiver: to, View: view, InfoTimes: it}
}

// SnapshotParts builds the payload a broadcast shares across receivers:
// one freshly allocated copy of the view and one information-timestamp
// vector. Messages are immutable once sent, so every receiver's Message
// may alias the same two slices — the network broadcast paths use this
// to allocate the payload once per broadcast instead of once per edge.
func (a *Agent) SnapshotParts() ([]BidInfo, []int) {
	view, it, _, _ := a.AppendSnapshot(nil, nil)
	return view, it
}

// AppendSnapshot appends the payload SnapshotParts builds to two
// caller-owned buffers and returns it as their new tails, capped at
// their length so that no later append through a payload slice can
// reach the buffers, together with the grown buffers. It writes
// nothing below either buffer's old length, so payloads appended
// earlier stay valid while later ones are added: a driver whose
// messages all die with its run keeps one pair of buffers for the run
// and rewinds it for the next, paying one growth per buffer instead of
// two allocations per message.
func (a *Agent) AppendSnapshot(views []BidInfo, times []int) (view []BidInfo, it []int, grownViews []BidInfo, grownTimes []int) {
	n := len(a.infoTime)
	if int(a.id) >= n {
		n = int(a.id) + 1
	}
	v0, t0 := len(views), len(times)
	views = append(views, a.view...)
	// One growth, not one append per padding entry (nor slices.Grow,
	// which allocates twice under the race detector). Capacity past the
	// old length may hold an earlier run's payloads, so the padding
	// between the copied times and the agent's own slot is cleared.
	if t0+n > cap(times) {
		times = append(make([]int, 0, max(t0+n, 2*cap(times))), times...)
	}
	times = times[:t0+n]
	clear(times[t0+copy(times[t0:], a.infoTime):])
	times[t0+int(a.id)] = a.clock
	return views[v0:len(views):len(views)], times[t0 : t0+n : t0+n], views, times
}

// InfoTime returns the agent's information timestamp about agent m.
func (a *Agent) InfoTime(m AgentID) int {
	if m == a.id {
		return a.clock
	}
	return infoAt(a.infoTime, m)
}

// infoAt reads a dense information-timestamp vector: indices beyond the
// slice mean "no information" (time 0), mirroring the absent-key reads
// of the map representation this replaced.
func infoAt(times []int, m AgentID) int {
	if int(m) < len(times) {
		return times[m]
	}
	return 0
}

// setInfo writes entry m of a dense information-timestamp vector,
// growing it on demand.
func setInfo(times []int, m AgentID, t int) []int {
	for int(m) >= len(times) {
		times = append(times, 0)
	}
	times[m] = t
	return times
}

// bundleDemand sums the demand of held items.
func (a *Agent) bundleDemand() int64 {
	var d int64
	for _, j := range a.bundle {
		d += a.demand(j)
	}
	return d
}

func (a *Agent) demand(j ItemID) int64 {
	if a.demands == nil {
		return 1
	}
	return a.demands[j]
}

func (a *Agent) inBundle(j ItemID) bool {
	for _, b := range a.bundle {
		if b == j {
			return true
		}
	}
	return false
}

// eligible reports whether the agent may currently bid on item j, and if
// so with which value.
func (a *Agent) eligible(j ItemID) (int64, bool) {
	if a.inBundle(j) {
		return 0, false
	}
	if len(a.bundle) >= a.policy.Target {
		return 0, false
	}
	if a.blocked[j] && a.policy.Rebid != RebidAlways {
		return 0, false
	}
	if a.capacity > 0 && a.bundleDemand()+a.demand(j) > a.capacity {
		return 0, false
	}
	bid := a.policy.Utility.Marginal(a.base, j, a.bundle, a.view[j])
	if bid <= 0 {
		return 0, false
	}
	if !Beats(bid, a.id, a.view[j]) {
		return 0, false
	}
	return bid, true
}

// BidPhase runs the greedy bidding mechanism: repeatedly add the
// eligible item with the highest marginal bid (ties to the lowest item
// ID) until none qualifies, or until the BidsPerRound policy cap is
// reached. It returns true if the view changed.
func (a *Agent) BidPhase() bool {
	a.digest = [2]uint64{}
	a.key = agentKeyCache{}
	return a.bidPhase()
}

// bidPhase is BidPhase without dropping the caches, for callers that
// have dropped them already.
func (a *Agent) bidPhase() bool {
	changed := false
	added := 0
	for {
		if a.policy.BidsPerRound > 0 && added >= a.policy.BidsPerRound {
			return changed
		}
		bestItem := ItemID(-1)
		var bestBid int64
		for j := 0; j < a.items; j++ {
			bid, ok := a.eligible(ItemID(j))
			if !ok {
				continue
			}
			if bestItem == -1 || bid > bestBid {
				bestItem, bestBid = ItemID(j), bid
			}
		}
		if bestItem == -1 {
			return changed
		}
		a.clock++
		a.bundle = append(a.bundle, bestItem)
		a.view[bestItem] = BidInfo{Bid: bestBid, Winner: a.id, Time: a.clock}
		changed = true
		added++
	}
}

// HandleMessage runs the agreement mechanism on one received message:
// per-item conflict resolution, outbid handling (with the release-outbid
// policy), Remark 1 bookkeeping, and a rebid pass. It returns true if
// the agent's state changed (meaning it should re-broadcast).
func (a *Agent) HandleMessage(m Message) bool {
	if len(m.View) != a.items {
		panic(fmt.Sprintf("mca: agent %d received view of length %d, want %d", a.id, len(m.View), a.items))
	}
	a.digest = [2]uint64{}
	a.key = agentKeyCache{}
	fr := Freshness{SenderTimes: m.InfoTimes, Receiver: a.id}
	changed := false
	for j := 0; j < a.items; j++ {
		local, remote := a.view[j], m.View[j]
		switch a.resolve(a.id, m.Sender, local, remote, fr) {
		case ActionUpdate:
			if local != remote {
				a.view[j] = remote
				// A timestamp-only refresh is adopted silently: only a
				// winner or bid change warrants re-broadcasting, otherwise
				// agreeing agents would echo messages forever.
				if local.Winner != remote.Winner || local.Bid != remote.Bid {
					changed = true
				}
			}
		case ActionReset:
			reset := BidInfo{Winner: NoAgent}
			if local != reset {
				a.view[j] = reset
				if local.Winner != reset.Winner || local.Bid != reset.Bid {
					changed = true
				}
			}
		case ActionLeave:
			// keep local
		}
		if m.View[j].Time > a.clock {
			// Advance the logical clock past any timestamp seen, so fresh
			// bids are globally newer than anything merged.
			a.clock = m.View[j].Time
		}
	}
	// Merge the information-timestamp vectors after resolution.
	for about, t := range m.InfoTimes {
		if AgentID(about) == a.id {
			continue
		}
		if t > infoAt(a.infoTime, AgentID(about)) {
			a.infoTime = setInfo(a.infoTime, AgentID(about), t)
		}
		if t > a.clock {
			a.clock = t
		}
	}
	if a.handleOutbids() {
		changed = true
	}
	if a.refreshLost() {
		changed = true
	}
	if a.bidPhase() {
		changed = true
	}
	if changed {
		// Any state change — including conceding one of our own claims —
		// advances the logical clock, so that subsequent messages carry
		// self-information that provably postdates the abandoned claim
		// (the sender-authority rule of the resolution table depends on
		// this).
		a.clock++
	}
	return changed
}

// handleOutbids scans the bundle for the first item the agent no longer
// wins. That item is dropped (and marked lost per Remark 1). Under the
// release-outbid policy all subsequent bundle items are dropped too and
// the agent retracts its claims on them (Remark 2: their bids were
// generated under stale budget assumptions). Without it, subsequent
// items are kept. The bundle is cut or spliced in place: every accessor
// that hands it out (Bundle, Won, Clone, SaveStateInto) copies it, and
// RestoreState copies into it, so nothing else holds its backing array.
func (a *Agent) handleOutbids() bool {
	outbidIdx := -1
	for idx, j := range a.bundle {
		if a.view[j].Winner != a.id {
			outbidIdx = idx
			break
		}
	}
	if outbidIdx == -1 {
		return false
	}
	j := a.bundle[outbidIdx]
	if a.policy.Rebid != RebidAlways {
		a.blocked[j] = true
		a.block[j] = a.view[j] // the claim that beat us
	}
	if a.policy.ReleaseOutbid {
		// Release every subsequent item: retract claims still attributed
		// to this agent.
		for _, s := range a.bundle[outbidIdx+1:] {
			if a.view[s].Winner == a.id {
				a.clock++
				a.view[s] = BidInfo{Winner: NoAgent, Time: a.clock}
			}
		}
		a.bundle = a.bundle[:outbidIdx]
	} else {
		a.bundle = append(a.bundle[:outbidIdx], a.bundle[outbidIdx+1:]...)
	}
	// More than one bundle item may have been overbid in a single merge;
	// recurse until the bundle is consistent with the view.
	a.handleOutbids()
	return true
}

// refreshLost clears Remark 1 marks for items whose beating claim no
// longer stands — the holder retracted it or regenerated a different bid
// — so under RebidOnChange the item is back on auction. RebidNever keeps
// marks forever; RebidAlways never sets them.
func (a *Agent) refreshLost() bool {
	if a.policy.Rebid != RebidOnChange {
		return false
	}
	changed := false
	for j := 0; j < a.items; j++ {
		if a.blocked[j] && a.view[j] != a.block[j] {
			a.blocked[j] = false
			a.block[j] = BidInfo{}
			changed = true
		}
	}
	return changed
}

// Won returns the items this agent currently believes it holds, sorted.
func (a *Agent) Won() []ItemID {
	out := append([]ItemID(nil), a.bundle...)
	sort.Slice(out, func(i, k int) bool { return out[i] < out[k] })
	return out
}

// ViewAgrees reports whether the agent's current view agrees with v on
// winners and winning bids — ViewsAgree against the live view, without
// the defensive copy View() makes. The protocol drivers sit this on
// their delivery hot path (the reply-on-disagreement rule).
func (a *Agent) ViewAgrees(v []BidInfo) bool {
	return ViewsAgree(a.view, v)
}

// BundleOverlaps reports whether a and b both hold some item — the
// allocation-free pairwise form of the explorers' conflict check.
func (a *Agent) BundleOverlaps(b *Agent) bool {
	for _, j := range a.bundle {
		if b.inBundle(j) {
			return true
		}
	}
	return false
}

// AgreesWith reports whether two agents' views agree on winners and
// winner bids — the consensusPred of the paper.
func (a *Agent) AgreesWith(b *Agent) bool {
	for j := 0; j < a.items; j++ {
		if a.view[j].Winner != b.view[j].Winner || a.view[j].Bid != b.view[j].Bid {
			return false
		}
	}
	return true
}
