package mca

import (
	"fmt"
	"strings"
)

// RebidMode instantiates the Remark 1 condition: whether an agent may bid
// again on an item it was previously outbid on.
type RebidMode int

// Rebid modes.
const (
	// RebidOnChange is the paper's MCA semantics for Remark 1: an agent
	// may not bid again on an item while the claim that overbid it still
	// stands, but when that claim changes — the holder retracts it or
	// regenerates a different bid (as the release-outbid policy does) —
	// the item is back on auction. This is what permits the Fig. 2
	// oscillation under release-outbid + non-sub-modular utilities.
	RebidOnChange RebidMode = iota + 1
	// RebidNever blocks an outbid item forever (strictest reading of
	// Remark 1); used as an ablation.
	RebidNever
	// RebidAlways removes the Remark 1 condition entirely — the
	// misbehaving/malicious agent of Result 2 (rebidding attack).
	RebidAlways
)

// rebidTokens is the scenario-document vocabulary of RebidMode, indexed
// by mode. The zero mode is not a mode and has no token.
var rebidTokens = [...]string{RebidOnChange: "on-change", RebidNever: "never", RebidAlways: "always"}

// String names the mode for display: "rebid-" and its token.
func (m RebidMode) String() string {
	if m < RebidOnChange || m > RebidAlways {
		return fmt.Sprintf("rebid(%d)", int(m))
	}
	return "rebid-" + rebidTokens[m]
}

// MarshalText renders the mode as its document token.
func (m RebidMode) MarshalText() ([]byte, error) {
	if m < RebidOnChange || m > RebidAlways {
		return nil, fmt.Errorf("mca: unencodable rebid mode %d", int(m))
	}
	return []byte(rebidTokens[m]), nil
}

// UnmarshalText parses a document token.
func (m *RebidMode) UnmarshalText(text []byte) error {
	for v := RebidOnChange; v <= RebidAlways; v++ {
		if rebidTokens[v] == string(text) {
			*m = v
			return nil
		}
	}
	return fmt.Errorf("mca: unknown rebid mode %q (want %s)", text, strings.Join(rebidTokens[RebidOnChange:], "|"))
}

// Policy bundles the variant aspects of the two MCA mechanisms for one
// agent, mirroring the p_T, p_u, and p_RO fields of the paper's pnode
// signature.
type Policy struct {
	// Target is p_T: the maximum number of items the agent may hold.
	Target int
	// Utility is p_u: the (marginal) utility function used to generate bids.
	Utility Utility
	// ReleaseOutbid is p_RO: when the agent is outbid on a bundle item,
	// release all items added after it (their bids were generated under a
	// larger residual budget and are stale — Remark 2) and retract its
	// claims on them. When false, subsequent items are kept.
	ReleaseOutbid bool
	// Rebid instantiates the Remark 1 condition.
	Rebid RebidMode
	// BidsPerRound caps how many items the agent may add to its bundle
	// in one bidding phase — the paper's example of a bidding-mechanism
	// policy ("the number of items on which agents simultaneously bid
	// on, in each auction round"). Zero means unlimited (bid until the
	// bundle is full or nothing is eligible).
	BidsPerRound int
}

// Validate checks the policy is fully specified.
func (p Policy) Validate() error {
	if p.Target <= 0 {
		return fmt.Errorf("mca: policy target %d must be positive", p.Target)
	}
	if p.Utility == nil {
		return fmt.Errorf("mca: policy utility must be set")
	}
	if p.Rebid < RebidOnChange || p.Rebid > RebidAlways {
		return fmt.Errorf("mca: invalid rebid mode %d", int(p.Rebid))
	}
	if p.BidsPerRound < 0 {
		return fmt.Errorf("mca: negative bids-per-round %d", p.BidsPerRound)
	}
	return nil
}

// Utility is a bidding utility function: the marginal value of adding
// item to the current bundle, given the agent's private base valuations
// and the highest bid currently known for the item (the paper notes that
// "the utility function u_i, used to generate the bids, may depend also
// on previous bids" — the escalating attacker exploits exactly that).
// Marginal must be deterministic, and must neither modify nor retain
// bundle: it is the agent's live bundle, edited in place as the agent
// is outbid. Submodular reports whether the function satisfies
// Definition 2 (the marginal value of an item never increases as the
// bundle grows) — the property Result 1 shows to be load-bearing for
// convergence under release-outbid.
type Utility interface {
	Marginal(base []int64, item ItemID, bundle []ItemID, current BidInfo) int64
	Submodular() bool
	Name() string
}

// The serializable utilities' kinds: what each one's Name returns, and
// its token in scenario documents and generator profiles.
const (
	KindSubmodularResidual   = "submodular-residual"
	KindNonSubmodularSynergy = "non-submodular-synergy"
	KindFlat                 = "flat"
	KindEscalatingAttack     = "escalating-attack"
)

// UtilityKinds lists the serializable utility kinds.
var UtilityKinds = []string{KindSubmodularResidual, KindNonSubmodularSynergy, KindFlat, KindEscalatingAttack}

// SubmodularResidual is the paper's canonical sub-modular example: the
// marginal utility is the base valuation scaled by the residual capacity
// fraction, so it strictly decreases as items are added — like the
// residual CPU of a physical node hosting virtual nodes.
type SubmodularResidual struct {
	// Decay is the per-item reduction numerator; the marginal value of
	// item j with k items already held is base[j] * max(0, D-k) / D
	// where D = Decay. Decay <= 0 defaults to 4.
	Decay int64
}

// Marginal implements Utility.
func (u SubmodularResidual) Marginal(base []int64, item ItemID, bundle []ItemID, _ BidInfo) int64 {
	d := u.Decay
	if d <= 0 {
		d = 4
	}
	k := int64(len(bundle))
	rem := d - k
	if rem < 0 {
		rem = 0
	}
	return base[item] * rem / d
}

// Submodular implements Utility.
func (u SubmodularResidual) Submodular() bool { return true }

// Name implements Utility.
func (u SubmodularResidual) Name() string { return KindSubmodularResidual }

// NonSubmodularSynergy violates Definition 2: items are worth more the
// larger the bundle already is (complementarities/synergies), so bids on
// later items exceed earlier ones. Combined with release-outbid this is
// the policy pair that breaks MCA convergence (Result 1, Fig. 2).
type NonSubmodularSynergy struct {
	// SynergyNum/SynergyDen scale the bonus: the marginal value of item j
	// with k items held is base[j] * (Den + Num*k) / Den. Zero values
	// default to Num=1, Den=1 (i.e. base*(1+k)).
	SynergyNum int64
	SynergyDen int64
}

// Marginal implements Utility.
func (u NonSubmodularSynergy) Marginal(base []int64, item ItemID, bundle []ItemID, _ BidInfo) int64 {
	num, den := u.SynergyNum, u.SynergyDen
	if num == 0 {
		num = 1
	}
	if den == 0 {
		den = 1
	}
	k := int64(len(bundle))
	return base[item] * (den + num*k) / den
}

// Submodular implements Utility.
func (u NonSubmodularSynergy) Submodular() bool { return false }

// Name implements Utility.
func (u NonSubmodularSynergy) Name() string { return KindNonSubmodularSynergy }

// FlatUtility bids the base valuation regardless of bundle contents.
// Constant marginals are (weakly) sub-modular.
type FlatUtility struct{}

// Marginal implements Utility.
func (FlatUtility) Marginal(base []int64, item ItemID, bundle []ItemID, _ BidInfo) int64 {
	return base[item]
}

// Submodular implements Utility.
func (FlatUtility) Submodular() bool { return true }

// Name implements Utility.
func (FlatUtility) Name() string { return KindFlat }

// EscalatingUtility is the Result 2 attacker's bid generator: it always
// offers one more than the highest bid it knows, up to Cap. Paired with
// RebidAlways it implements the rebidding denial-of-service attack — the
// agent keeps overbidding whoever wins, stalling consensus far past the
// D·|J| message bound.
type EscalatingUtility struct {
	Step int64 // increment over the known bid; 0 defaults to 1
	Cap  int64 // hard ceiling; 0 defaults to 1<<20
}

// Marginal implements Utility.
func (u EscalatingUtility) Marginal(base []int64, item ItemID, bundle []ItemID, current BidInfo) int64 {
	step := u.Step
	if step <= 0 {
		step = 1
	}
	cap := u.Cap
	if cap <= 0 {
		cap = 1 << 20
	}
	want := current.Bid + step
	if base[item] > want {
		want = base[item]
	}
	if want > cap {
		want = cap
	}
	return want
}

// Submodular implements Utility.
func (u EscalatingUtility) Submodular() bool { return false }

// Name implements Utility.
func (u EscalatingUtility) Name() string { return KindEscalatingAttack }
