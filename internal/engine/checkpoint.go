package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/explore"
)

// ErrCorruptCheckpoint tags every DecodeCheckpoint failure caused by
// the document's bytes — malformed JSON, a broken embedded scenario, a
// damaged run state — as opposed to operational errors around it.
// Checkpoint files live on disk between runs, so callers (mcacheck
// -resume) match it with errors.Is and tell the user to delete the
// file and re-verify from scratch rather than retrying.
var ErrCorruptCheckpoint = errors.New("corrupt checkpoint")

// Checkpoint is a resumable snapshot of a budget-capped explicit-state
// run: the scenario it was taken for, the worker count that produced it
// (informational — resume works at any worker count), and the binary
// explore run state. Checkpoints exist to raise the MaxStates budget of
// a capped run without re-exploring its prefix; resuming yields a
// result identical to the same verification executed uninterrupted.
type Checkpoint struct {
	// Scenario is the verification the run state belongs to. Matches
	// compares it against the resuming scenario with the display name
	// and the MaxStates budget blanked — everything else must agree.
	Scenario Scenario
	// Workers is the worker count of the run that produced the snapshot.
	Workers int
	// State is the binary explore.RunState document.
	State []byte
}

type checkpointJSON struct {
	Version  int             `json:"version"`
	Scenario json.RawMessage `json:"scenario"`
	Workers  int             `json:"workers,omitempty"`
	RunState []byte          `json:"run_state"` // base64 per encoding/json
}

// checkpointMagic opens the envelope (Seal) around the JSON document.
// A torn write or a decaying sector can damage bytes in ways the
// structural decoder cannot always catch; the checksum turns every such
// case into ErrCorruptCheckpoint at decode time.
const checkpointMagic = "MCACKP1 "

// EncodeCheckpoint renders a checkpoint as versioned JSON — the
// canonical scenario document embedded verbatim, the binary run state
// as base64 — sealed in the whole-document checksum envelope.
func EncodeCheckpoint(c *Checkpoint) ([]byte, error) {
	sc, err := EncodeScenario(&c.Scenario)
	if err != nil {
		return nil, fmt.Errorf("engine: checkpoint: %w", err)
	}
	payload, err := json.Marshal(checkpointJSON{
		Version:  SchemaVersion,
		Scenario: sc,
		Workers:  c.Workers,
		RunState: c.State,
	})
	if err != nil {
		return nil, err
	}
	return Seal(checkpointMagic, payload), nil
}

// DecodeCheckpoint parses a checkpoint document strictly, validating
// both the embedded scenario and the run state's structure. Damaged
// input — truncation, flipped bits, foreign bytes, a missing envelope —
// yields an error wrapping ErrCorruptCheckpoint, never a panic and
// never a checkpoint that would resume into a wrong verdict.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	payload, err := Unseal(checkpointMagic, data)
	if err != nil {
		return nil, fmt.Errorf("engine: checkpoint: %w: %w", ErrCorruptCheckpoint, err)
	}
	var w checkpointJSON
	if err := StrictUnmarshal(payload, &w); err != nil {
		return nil, fmt.Errorf("engine: checkpoint: %w: %w", ErrCorruptCheckpoint, err)
	}
	if w.Version != SchemaVersion {
		return nil, fmt.Errorf("engine: checkpoint: unsupported schema version %d (want %d)", w.Version, SchemaVersion)
	}
	s, err := DecodeScenario(w.Scenario)
	if err != nil {
		return nil, fmt.Errorf("engine: checkpoint: %w: %w", ErrCorruptCheckpoint, err)
	}
	if _, err := explore.DecodeRunState(w.RunState); err != nil {
		return nil, fmt.Errorf("engine: checkpoint: %w: %w", ErrCorruptCheckpoint, err)
	}
	return &Checkpoint{Scenario: s, Workers: w.Workers, State: w.RunState}, nil
}

// Matches reports whether the checkpoint belongs to the same
// verification as s: the canonical scenario encodings must be equal
// with the display name and the MaxStates budget blanked (raising the
// budget is the point of resuming; renaming is cosmetic). Any other
// difference — agents, graph, bounds, store mode, fault model — would
// silently change what the restored prefix means, so it is an error.
func (c *Checkpoint) Matches(s Scenario) error {
	a := c.Scenario
	b := s
	for _, sc := range []*Scenario{&a, &b} {
		sc.Name = ""
		sc.Explore.MaxStates = 0
	}
	ea, err := EncodeScenario(&a)
	if err != nil {
		return fmt.Errorf("engine: checkpoint: %w", err)
	}
	eb, err := EncodeScenario(&b)
	if err != nil {
		return fmt.Errorf("engine: checkpoint: %w", err)
	}
	if !bytes.Equal(ea, eb) {
		return fmt.Errorf("engine: checkpoint was taken for a different scenario than %q (only the display name and the max_states budget may differ on resume)", s.Name)
	}
	return nil
}
