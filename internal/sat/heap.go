package sat

import "slices"

// varHeap is an intrusive max-heap over variables ordered by VSIDS
// activity. It keeps the index of each variable inside the heap so
// activity bumps can sift in place.
type varHeap struct {
	act     *[]float64 // shared with the solver's activity slice
	heap    []Var
	indices []int // indices[v] = position in heap, -1 if absent
}

func newVarHeap(act *[]float64) *varHeap {
	return &varHeap{act: act}
}

// grow makes room for n more variables.
func (h *varHeap) grow(n int) {
	h.heap = slices.Grow(h.heap, n)
	h.indices = slices.Grow(h.indices, n)
}

func (h *varHeap) growTo(n int) {
	for len(h.indices) < n {
		h.indices = append(h.indices, -1)
	}
}

func (h *varHeap) inHeap(v Var) bool {
	return int(v) < len(h.indices) && h.indices[v] >= 0
}

func (h *varHeap) empty() bool { return len(h.heap) == 0 }

func (h *varHeap) less(a, b Var) bool { return (*h.act)[a] > (*h.act)[b] }

func (h *varHeap) percolateUp(i int) {
	v := h.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(v, h.heap[parent]) {
			break
		}
		h.heap[i] = h.heap[parent]
		h.indices[h.heap[i]] = i
		i = parent
	}
	h.heap[i] = v
	h.indices[v] = i
}

func (h *varHeap) percolateDown(i int) {
	v := h.heap[i]
	n := len(h.heap)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && h.less(h.heap[right], h.heap[left]) {
			child = right
		}
		if !h.less(h.heap[child], v) {
			break
		}
		h.heap[i] = h.heap[child]
		h.indices[h.heap[i]] = i
		i = child
	}
	h.heap[i] = v
	h.indices[v] = i
}

// insert pushes v if absent.
func (h *varHeap) insert(v Var) {
	h.growTo(int(v) + 1)
	if h.inHeap(v) {
		return
	}
	h.heap = append(h.heap, v)
	h.indices[v] = len(h.heap) - 1
	h.percolateUp(len(h.heap) - 1)
}

// update re-sifts v after an activity change (no-op if absent).
func (h *varHeap) update(v Var) {
	if !h.inHeap(v) {
		return
	}
	i := h.indices[v]
	h.percolateUp(i)
	h.percolateDown(h.indices[v])
}

// removeMax pops the most active variable.
func (h *varHeap) removeMax() Var {
	v := h.heap[0]
	last := h.heap[len(h.heap)-1]
	h.heap = h.heap[:len(h.heap)-1]
	h.indices[v] = -1
	if len(h.heap) > 0 {
		h.heap[0] = last
		h.indices[last] = 0
		h.percolateDown(0)
	}
	return v
}
