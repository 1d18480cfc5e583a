#!/bin/sh
# Checkpoint/resume smoke: cap an explicit-state run (the serial DFS)
# on a tiny state budget, write a checkpoint, resume it with the budget
# raised, and require the resumed run's report to be byte-identical to
# the uninterrupted run's (first line aside — it names the invocation,
# not the verdict). This is the CLI-level end of the equivalence the
# internal/explore resume suite pins in-process. It runs twice: once on
# a scenario built from flags, once on a scenario document, since every
# source checkpoints the same way.
#
# The scenarios are deliberately small (3 agents on a line, a few
# hundred states) so the smoke stays sub-second; the property it checks
# is cut-point-independent, so size adds nothing.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

# Build once: `go run` flattens the program's exit code to 1, and the
# capped run's exit 3 is part of what this smoke checks.
go build -o "$tmp/mcacheck" ./cmd/mcacheck

# leg NAME SOURCE...: the lifecycle on the scenario SOURCE selects.
leg() {
    name=$1
    shift
    # Uninterrupted reference run.
    "$tmp/mcacheck" "$@" -maxstates 200000 >"$tmp/$name.full"

    # Capped run: exit 3 (inconclusive) and a checkpoint are the contract.
    rc=0
    "$tmp/mcacheck" "$@" -maxstates 40 \
        -checkpoint "$tmp/$name.ckpt" >"$tmp/$name.capped" 2>"$tmp/$name.err" || rc=$?
    if [ "$rc" -ne 3 ]; then
        echo "resume smoke ($name): capped run exited $rc, want 3 (inconclusive)" >&2
        cat "$tmp/$name.capped" "$tmp/$name.err" >&2
        exit 1
    fi
    if [ ! -s "$tmp/$name.ckpt" ]; then
        echo "resume smoke ($name): capped run wrote no checkpoint" >&2
        exit 1
    fi

    # Resume with the budget raised.
    "$tmp/mcacheck" -resume "$tmp/$name.ckpt" -maxstates 200000 \
        >"$tmp/$name.resumed"

    tail -n +2 "$tmp/$name.full" >"$tmp/$name.full.tail"
    tail -n +2 "$tmp/$name.resumed" >"$tmp/$name.resumed.tail"
    if ! diff -u "$tmp/$name.full.tail" "$tmp/$name.resumed.tail"; then
        echo "resume smoke ($name): resumed report diverges from the uninterrupted run" >&2
        exit 1
    fi
    echo "resume smoke ($name): resumed report identical to the uninterrupted run"
}

leg flags -agents 3 -items 2 -utility flat -topology line -seed 1
leg document -scenario examples/scenarios/line3.json
