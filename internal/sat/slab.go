package sat

import "slices"

// The watch lists of all literals live in one slab per kind: one
// backing array and, per literal, the span of it that literal's list
// owns. A list fills its room in place; when it outgrows it, it moves
// to the end of the slab with twice the room, leaving the old room
// dead. So the solver's watch state is flat arrays of plain words:
// nothing for the garbage collector to scan, and a copy of it is a few
// copies.

// watcher is one entry of a long-clause watch list: the clause reference
// plus a blocker literal whose truth satisfies the clause without
// touching the arena. Eight bytes per entry keeps watch-list walks
// inside a few cache lines.
type watcher struct {
	cr      cref
	blocker Lit
}

// span is one list's place in its slab: n entries from data[off], in a
// room of room entries reserved there.
type span struct{ off, n, room uint32 }

// firstRoom is the room a list takes when its first entry arrives: a
// Tseitin literal is watched by a clause or two.
const firstRoom = 2

// slab holds one list of T per literal.
type slab[T any] struct {
	data   []T
	spans  []span // indexed by Lit
	wasted int    // entries of the rooms that moved lists left behind
}

// list returns l's entries. The slice aliases the slab: it is valid
// until a push to another list moves that list and grows the slab.
func (w *slab[T]) list(l Lit) []T {
	sp := w.spans[l]
	return w.data[sp.off : sp.off+sp.n]
}

// push appends x to l's list, moving the list when its room is full.
func (w *slab[T]) push(l Lit, x T) {
	sp := &w.spans[l]
	if sp.n == sp.room {
		w.move(sp)
	}
	w.data[sp.off+sp.n] = x
	sp.n++
}

// move gives the list at sp twice its room at the end of the slab; the
// list already at the end grows where it is.
func (w *slab[T]) move(sp *span) {
	room := max(2*sp.room, firstRoom)
	end := uint32(len(w.data))
	if sp.room > 0 && sp.off+sp.room == end {
		w.data = extend(w.data, room-sp.room)
		sp.room = room
		return
	}
	w.data = extend(w.data, room)
	copy(w.data[end:], w.data[sp.off:sp.off+sp.n])
	w.wasted += int(sp.room)
	sp.off, sp.room = end, room
}

// extend lengthens data by n entries, reallocating as append does.
func extend[T any](data []T, n uint32) []T {
	return slices.Grow(data, int(n))[:len(data)+int(n)]
}

// remove deletes entry i of l's list by moving the last entry into it.
func (w *slab[T]) remove(l Lit, i int) {
	sp := &w.spans[l]
	sp.n--
	w.data[sp.off+uint32(i)] = w.data[sp.off+sp.n]
}

// grow makes room for the lists of n more variables.
func (w *slab[T]) grow(n int) { w.spans = slices.Grow(w.spans, 2*n) }

// addVar starts the two empty lists of a new variable.
func (w *slab[T]) addVar() { w.spans = append(w.spans, span{}, span{}) }

// reserve makes room for n more entries at the end of the slab.
func (w *slab[T]) reserve(n int) { w.data = slices.Grow(w.data, n) }

// clone copies the slab. Every list keeps its room, so the copy's
// lists grow as the original's would; the room moved lists left behind
// is not copied.
func (w *slab[T]) clone() slab[T] {
	if w.wasted == 0 {
		return slab[T]{data: slices.Clone(w.data), spans: slices.Clone(w.spans)}
	}
	c := slab[T]{data: make([]T, len(w.data)-w.wasted), spans: make([]span, len(w.spans))}
	off := uint32(0)
	for l, sp := range w.spans {
		copy(c.data[off:], w.data[sp.off:sp.off+sp.n])
		c.spans[l] = span{off: off, n: sp.n, room: sp.room}
		off += sp.room
	}
	return c
}
