package trace

import (
	"fmt"
	"strings"
	"sync"
)

// Step is one recorded protocol step.
type Step struct {
	// Label describes the transition (e.g. "deliver 1->0" or "round 3").
	Label string
	// Agents holds one snapshot per agent, in agent order.
	Agents []AgentSnapshot
}

// AgentSnapshot is the rendered state of one agent at a step.
type AgentSnapshot struct {
	ID     int
	Bids   []int64 // believed winning bid per item
	Winner []int   // believed winner per item (-1 = none)
	Bundle []int   // items held, in addition order
}

// Recorder accumulates steps.
type Recorder struct {
	ItemNames []string // optional, defaults to item indices
	steps     []Step

	// load, when set, supplies the steps on their first read: a trace
	// read off the wire stays encoded until someone looks at it.
	once sync.Once
	load func() []Step
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// NewLazyRecorder returns a recorder of the named items whose steps load
// supplies, once, when they are first read. Reads are safe from several
// goroutines at once.
func NewLazyRecorder(itemNames []string, load func() []Step) *Recorder {
	return &Recorder{ItemNames: itemNames, load: load}
}

// loaded runs a lazy recorder's load.
func (r *Recorder) loaded() {
	if r.load != nil {
		r.once.Do(func() { r.steps = r.load() })
	}
}

// Record appends a step.
func (r *Recorder) Record(s Step) {
	r.loaded()
	r.steps = append(r.steps, s)
}

// Steps returns the recorded steps.
func (r *Recorder) Steps() []Step {
	r.loaded()
	return r.steps
}

// Len returns the number of recorded steps.
func (r *Recorder) Len() int { return len(r.Steps()) }

// itemName renders item j.
func (r *Recorder) itemName(j int) string {
	if j < len(r.ItemNames) {
		return r.ItemNames[j]
	}
	return fmt.Sprintf("%d", j)
}

// String renders the whole trace in the paper's iteration-table style:
//
//	== deliver 1->0
//	  a0: b={10,30} m={A,C} win={A:a0 C:a0}
func (r *Recorder) String() string {
	var b strings.Builder
	for _, s := range r.Steps() {
		fmt.Fprintf(&b, "== %s\n", s.Label)
		for _, a := range s.Agents {
			b.WriteString("  ")
			b.WriteString(r.renderAgent(a))
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func (r *Recorder) renderAgent(a AgentSnapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "a%d: b={", a.ID)
	for j, bid := range a.Bids {
		if j > 0 {
			b.WriteByte(',')
		}
		if a.Winner[j] < 0 {
			b.WriteString("--")
		} else {
			fmt.Fprintf(&b, "%d", bid)
		}
	}
	b.WriteString("} m={")
	for i, j := range a.Bundle {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(r.itemName(j))
	}
	b.WriteString("} win={")
	first := true
	for j, w := range a.Winner {
		if w < 0 {
			continue
		}
		if !first {
			b.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&b, "%s:a%d", r.itemName(j), w)
	}
	b.WriteString("}")
	return b.String()
}

// Summary reports step count and final agent states on one line each.
func (r *Recorder) Summary() string {
	if r.Len() == 0 {
		return "(empty trace)"
	}
	last := r.steps[len(r.steps)-1]
	var b strings.Builder
	fmt.Fprintf(&b, "%d steps; final state:\n", len(r.steps))
	for _, a := range last.Agents {
		b.WriteString("  ")
		b.WriteString(r.renderAgent(a))
		b.WriteByte('\n')
	}
	return b.String()
}
