package netsim

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/mca"
)

// ring3Net is the shape every decode below targets: a 3-ring on
// channels of depth 2, as the explorers build it.
func ring3Net() *Network {
	n := New(graph.Ring(3))
	n.LimitQueueDepth(2)
	return n
}

// ring3States returns encoded networks of a ring-3 run: after the
// initial broadcasts, and after each of its first deliveries.
func ring3States() [][]byte {
	agents := asyncAgents(3, 2, 1)
	n := ring3Net()
	for _, a := range agents {
		if a.BidPhase() {
			n.BroadcastAgent(a)
		}
	}
	states := [][]byte{n.AppendState(nil)}
	for i := 0; i < 6 && !n.Quiescent(); i++ {
		e := n.PendingInto(nil)[i%len(n.PendingInto(nil))]
		if agents[e.To].HandleMessage(n.Deliver(e)) {
			n.BroadcastAgent(agents[e.To])
		}
		states = append(states, n.AppendState(nil))
	}
	return states
}

// decodes reports whether n decodes data without a panic.
func decodes(n *Network, data []byte) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	n.DecodeState(data)
	return true
}

// rankerOf returns the ranker of a state holding only n's messages.
func rankerOf(n *Network) mca.Ranker {
	if r, ok := n.TimeSpanUncached().Ranker(); ok {
		return r
	}
	return mca.SortedRanker(n.AppendTimes(nil))
}

// queuedMessages lists every queued message with its edge, copied so
// that an empty slice compares equal to a nil one.
func queuedMessages(n *Network) []any {
	var out []any
	n.ForEachQueued(func(e Edge, m mca.Message) { out = append(out, e, m.Clone()) })
	return out
}

// FuzzNetworkDecodeState: a network state is untrusted bytes when it
// comes in a checkpoint. A decode that does not panic re-encodes to
// bytes that decode to the same network, and decoding into a warm
// network — one whose cells hold spans and key digests of an earlier
// decode, made under the ranker this state will be keyed with — gives
// the key digest a fresh network gives: a reused cell keeps no cache.
func FuzzNetworkDecodeState(f *testing.F) {
	states := ring3States()
	for _, s := range states {
		f.Add(s)
	}
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 0})                           // an empty section
	f.Add(append(append([]byte{}, states[0]...), 0)) // trailing bytes
	f.Fuzz(func(t *testing.T, data []byte) {
		fresh := ring3Net()
		if !decodes(fresh, data) {
			return
		}
		enc := fresh.AppendState(nil)
		again := ring3Net()
		if !decodes(again, enc) {
			t.Fatalf("re-encoding %x does not decode", enc)
		}
		if !bytes.Equal(again.AppendState(nil), enc) {
			t.Fatalf("round trip moved the bytes:\n%x\n%x", enc, again.AppendState(nil))
		}
		if !reflect.DeepEqual(queuedMessages(again), queuedMessages(fresh)) ||
			again.InFlight() != fresh.InFlight() || again.Quiescent() != fresh.Quiescent() {
			t.Fatalf("decoded %x and its re-encoding %x are different networks", data, enc)
		}

		r := rankerOf(fresh)
		want, _ := fresh.KeyDigestUncached(&r, 3, nil)
		warm := ring3Net()
		for _, s := range states {
			warm.DecodeState(s)
			warm.TimeSpan()
			warm.KeyDigest(&r, 3, nil)
		}
		warm.DecodeState(data)
		if got, span := warm.TimeSpan(), fresh.TimeSpanUncached(); got != span {
			t.Fatalf("warm network spans %+v, fresh %+v", got, span)
		}
		for _, n := range []*Network{warm, fresh, warm} {
			if got, _ := n.KeyDigest(&r, 3, nil); got != want {
				t.Fatalf("key digest %x, uncached %x", got, want)
			}
		}
	})
}
