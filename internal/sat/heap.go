package sat

import "slices"

// varHeap is an intrusive max-heap over variables ordered by VSIDS
// activity. Each slot carries its variable's activity, so a sift
// compares neighbouring slots instead of loading the activity of two
// scattered variables, and it keeps the slot of each variable so
// activity bumps can sift in place.
//
// Activity only grows, and a rescale multiplies every activity by the
// same factor, so a bumped variable can only rise: update sifts up and
// never down.
type varHeap struct {
	slots   []heapSlot
	indices []int32 // indices[v] = v's slot, -1 if absent
}

// heapSlot is one heap entry: a variable and its activity.
type heapSlot struct {
	act float64
	v   Var
}

// grow makes room for n more variables.
func (h *varHeap) grow(n int) {
	h.slots = slices.Grow(h.slots, n)
	h.indices = slices.Grow(h.indices, n)
}

func (h *varHeap) clone() varHeap {
	return varHeap{slots: slices.Clone(h.slots), indices: slices.Clone(h.indices)}
}

func (h *varHeap) inHeap(v Var) bool {
	return int(v) < len(h.indices) && h.indices[v] >= 0
}

func (h *varHeap) empty() bool { return len(h.slots) == 0 }

func (h *varHeap) percolateUp(i int) {
	x := h.slots[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !(x.act > h.slots[parent].act) {
			break
		}
		h.slots[i] = h.slots[parent]
		h.indices[h.slots[i].v] = int32(i)
		i = parent
	}
	h.slots[i] = x
	h.indices[x.v] = int32(i)
}

func (h *varHeap) percolateDown(i int) {
	x := h.slots[i]
	n := len(h.slots)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && h.slots[right].act > h.slots[left].act {
			child = right
		}
		if !(h.slots[child].act > x.act) {
			break
		}
		h.slots[i] = h.slots[child]
		h.indices[h.slots[i].v] = int32(i)
		i = child
	}
	h.slots[i] = x
	h.indices[x.v] = int32(i)
}

// insert pushes v, whose activity is act, if absent.
func (h *varHeap) insert(v Var, act float64) {
	for len(h.indices) <= int(v) {
		h.indices = append(h.indices, -1)
	}
	if h.inHeap(v) {
		return
	}
	h.slots = append(h.slots, heapSlot{act: act, v: v})
	h.indices[v] = int32(len(h.slots) - 1)
	h.percolateUp(len(h.slots) - 1)
}

// update records v's raised activity and sifts it up (no-op if absent).
func (h *varHeap) update(v Var, act float64) {
	if !h.inHeap(v) {
		return
	}
	i := h.indices[v]
	h.slots[i].act = act
	h.percolateUp(int(i))
}

// scale multiplies every slot's activity by f, as a rescale does the
// activity of every variable.
func (h *varHeap) scale(f float64) {
	for i := range h.slots {
		h.slots[i].act *= f
	}
}

// removeMax pops the most active variable.
func (h *varHeap) removeMax() Var {
	v := h.slots[0].v
	last := h.slots[len(h.slots)-1]
	h.slots = h.slots[:len(h.slots)-1]
	h.indices[v] = -1
	if len(h.slots) > 0 {
		h.slots[0] = last
		h.indices[last.v] = 0
		h.percolateDown(0)
	}
	return v
}
