package mca

import "fmt"

// AgentID identifies an agent (a physical node in the virtual network
// mapping case study). IDs double as the deterministic tie-breaker:
// between equal bids the lower ID wins.
type AgentID int

// NoAgent is the NULL winner: nobody currently holds the item.
const NoAgent AgentID = -1

// ItemID identifies an item on auction (a virtual node in the case study).
type ItemID int

// BidInfo is one entry of an agent's local view: the highest bid the
// agent knows for an item, who generated it, and the logical time at
// which it was generated (used by the asynchronous conflict resolution).
type BidInfo struct {
	Bid    int64
	Winner AgentID
	Time   int
}

// Beats reports whether a bid by agent a beats bid other (held by agent
// o) under the deterministic total order: higher bid wins, ties go to
// the lower agent ID. An empty slot (Winner == NoAgent) is beaten by any
// positive bid.
func Beats(bid int64, a AgentID, other BidInfo) bool {
	if other.Winner == NoAgent {
		return bid > 0
	}
	if bid != other.Bid {
		return bid > other.Bid
	}
	return a < other.Winner
}

// Message is one MCA bid message: the sender's full view of the highest
// bids, their winners, and their generation times — mirroring the
// msgBids, msgWinners, and msgBidTimes relations of the paper's message
// signature — plus the sender's per-agent information timestamp vector,
// which the conflict resolution table uses to decide whose relayed
// information is fresher (see SenderNewer).
type Message struct {
	Sender   AgentID
	Receiver AgentID
	View     []BidInfo // indexed by ItemID
	// InfoTimes[m] is the logical time of the latest information the
	// sender has (directly or relayed) about agent m, as a dense vector
	// indexed by AgentID. Indices beyond the slice mean 0 (no
	// information) — the semantics every reader already applied to
	// absent keys when this was a map. A broadcast shares one InfoTimes
	// slice across all its receivers; messages are immutable once sent.
	InfoTimes []int
}

// InfoTimeOf reads the sender's information timestamp about agent m;
// agents beyond the vector are unheard-of (time 0).
func (m Message) InfoTimeOf(about AgentID) int { return infoAt(m.InfoTimes, about) }

// Clone deep-copies the message.
func (m Message) Clone() Message {
	v := make([]BidInfo, len(m.View))
	copy(v, m.View)
	return Message{Sender: m.Sender, Receiver: m.Receiver, View: v,
		InfoTimes: append([]int(nil), m.InfoTimes...)}
}

// String renders a compact description.
func (m Message) String() string {
	return fmt.Sprintf("msg %d->%d %v", m.Sender, m.Receiver, m.View)
}

// ViewsAgree reports whether two views agree on winners and winning
// bids for every item (generation times and info vectors may differ).
// This is the pairwise form of the paper's consensusPred, and the test
// the protocol drivers use to decide whether a receiver should reply to
// a sender whose message disagrees with its own view.
func ViewsAgree(a, b []BidInfo) bool {
	if len(a) != len(b) {
		return false
	}
	for j := range a {
		if a[j].Winner != b[j].Winner || a[j].Bid != b[j].Bid {
			return false
		}
	}
	return true
}

// Allocation maps each item to the agent that won it (NoAgent if
// unassigned).
type Allocation []AgentID

// Assigned counts assigned items.
func (a Allocation) Assigned() int {
	n := 0
	for _, w := range a {
		if w != NoAgent {
			n++
		}
	}
	return n
}

// String renders item->agent pairs.
func (a Allocation) String() string {
	s := "{"
	for j, w := range a {
		if j > 0 {
			s += " "
		}
		if w == NoAgent {
			s += fmt.Sprintf("%d:-", j)
		} else {
			s += fmt.Sprintf("%d:a%d", j, w)
		}
	}
	return s + "}"
}
