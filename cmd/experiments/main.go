// Command experiments regenerates every evaluation artifact of the
// paper in one run and prints them in the same structure as the paper's
// figures and results. README.md ("Running the experiments") lists them;
// docs/PERFORMANCE.md discusses the measured E5 numbers.
//
// Usage:
//
//	experiments            # all experiments
//	experiments -only e5   # a single experiment (e1..e7)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/explore"
	"repro/internal/graph"
	"repro/internal/mca"
	"repro/internal/mcamodel"
	"repro/internal/sat"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	all := map[string]func() error{
		"e1": e1Fig1,
		"e2": e2Fig2,
		"e3": e3Result1,
		"e4": e4Result2,
		"e5": e5Encodings,
		"e6": e6Bound,
		"e7": e7Static,
	}
	order := []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7"}
	// The -only vocabulary is derived from the registry, so adding an
	// experiment can never leave the help text or the error message
	// describing a stale range.
	span := fmt.Sprintf("%s..%s", order[0], order[len(order)-1])
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	only := fs.String("only", "", fmt.Sprintf("run a single experiment: %s (default all)", span))
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sel := order
	if *only != "" {
		if _, ok := all[strings.ToLower(*only)]; !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (want %s)\n", *only, span)
			return 2
		}
		sel = []string{strings.ToLower(*only)}
	}
	for _, name := range sel {
		if err := all[name](); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			return 1
		}
		fmt.Println()
	}
	return 0
}

func header(s string) { fmt.Printf("==== %s\n", s) }

func e1Fig1() error {
	header("E1 — Fig. 1: two agents, three items (A, B, C)")
	pol := mca.Policy{Target: 2, Utility: mca.FlatUtility{}, Rebid: mca.RebidOnChange}
	a1 := mca.MustNewAgent(mca.Config{ID: 0, Items: 3, Base: []int64{10, 0, 30}, Policy: pol})
	a2 := mca.MustNewAgent(mca.Config{ID: 1, Items: 3, Base: []int64{20, 15, 0}, Policy: pol})
	a1.BidPhase()
	a2.BidPhase()
	fmt.Println("bidding:")
	printFig1(a1, a2)
	m21 := a2.Snapshot(0)
	a2.HandleMessage(a1.Snapshot(1))
	a1.HandleMessage(m21)
	fmt.Println("after agreement:")
	printFig1(a1, a2)
	if !a1.AgreesWith(a2) {
		return fmt.Errorf("fig.1 agents disagree")
	}
	fmt.Println("paper: b=(20,15,30), a=(2,2,1) — reproduced")
	return nil
}

func printFig1(agents ...*mca.Agent) {
	names := []string{"A", "B", "C"}
	for _, a := range agents {
		var b, w []string
		for _, bi := range a.View() {
			if bi.Winner == mca.NoAgent {
				b = append(b, "--")
				w = append(w, "--")
			} else {
				b = append(b, fmt.Sprint(bi.Bid))
				w = append(w, fmt.Sprint(int(bi.Winner)+1))
			}
		}
		var m []string
		for _, j := range a.Bundle() {
			m = append(m, names[j])
		}
		fmt.Printf("  agent %d: b=(%s) a=(%s) m={%s}\n",
			a.ID()+1, strings.Join(b, ","), strings.Join(w, ","), strings.Join(m, ","))
	}
}

func fig2Agents(util mca.Utility, release bool) []*mca.Agent {
	pol := mca.Policy{Target: 2, Utility: util, Rebid: mca.RebidOnChange, ReleaseOutbid: release}
	return []*mca.Agent{
		mca.MustNewAgent(mca.Config{ID: 0, Items: 2, Base: []int64{10, 15}, Policy: pol}),
		mca.MustNewAgent(mca.Config{ID: 1, Items: 2, Base: []int64{15, 10}, Policy: pol}),
	}
}

func e2Fig2() error {
	header("E2 — Fig. 2: release-outbid instability")
	v := explore.Check(fig2Agents(mca.NonSubmodularSynergy{}, true), graph.Complete(2), explore.Options{})
	if v.OK || v.Violation != explore.ViolationOscillation {
		return fmt.Errorf("expected oscillation, got OK=%v %v", v.OK, v.Violation)
	}
	fmt.Println("non-sub-modular + release-outbid: OSCILLATION found; counterexample:")
	fmt.Print(v.Trace.String())
	return nil
}

func e3Result1() error {
	header("E3 — Result 1: policy combination matrix")
	fmt.Printf("%-26s %-8s %-10s %s\n", "utility (p_u)", "p_RO", "verdict", "violation")
	for _, u := range []mca.Utility{mca.SubmodularResidual{}, mca.NonSubmodularSynergy{}} {
		for _, rel := range []bool{false, true} {
			v := explore.Check(fig2Agents(u, rel), graph.Complete(2), explore.Options{})
			verdict := "converges"
			if !v.OK {
				verdict = "FAILS"
			}
			fmt.Printf("%-26s %-8v %-10s %v\n", u.Name(), rel, verdict, v.Violation)
			wantFail := !u.Submodular() && rel
			if v.OK == wantFail {
				return fmt.Errorf("unexpected verdict for %s/p_RO=%v", u.Name(), rel)
			}
		}
	}
	fmt.Println("paper: consensus always reached except non-sub-modular + p_RO — reproduced")
	return nil
}

func e4Result2() error {
	header("E4 — Result 2: the rebidding attack")
	attack := mca.Policy{Target: 1, Utility: mca.EscalatingUtility{Cap: 1 << 20}, Rebid: mca.RebidAlways}
	agents := []*mca.Agent{
		mca.MustNewAgent(mca.Config{ID: 0, Items: 1, Base: []int64{10}, Policy: attack}),
		mca.MustNewAgent(mca.Config{ID: 1, Items: 1, Base: []int64{5}, Policy: attack}),
	}
	v := explore.Check(agents, graph.Complete(2), explore.Options{})
	if v.OK {
		return fmt.Errorf("attack unexpectedly verified")
	}
	fmt.Printf("Remark 1 condition removed: consensus VIOLATED (%v)\n", v.Violation)

	// Countermeasure (footnote 7): the detector flags the attacker.
	honest := mca.MustNewAgent(mca.Config{ID: 0, Items: 1, Base: []int64{10},
		Policy: mca.Policy{Target: 1, Utility: mca.FlatUtility{}, Rebid: mca.RebidOnChange}})
	attacker := mca.MustNewAgent(mca.Config{ID: 1, Items: 1, Base: []int64{5}, Policy: attack})
	det := mca.NewDetector(0, 1)
	honest.BidPhase()
	attacker.BidPhase()
	for r := 0; r < 6; r++ {
		m := attacker.Snapshot(0)
		det.Observe(m, honest.View())
		back := honest.Snapshot(1)
		honest.HandleMessage(m)
		attacker.HandleMessage(back)
	}
	if !det.IsFlagged(1) {
		return fmt.Errorf("detector failed to flag the attacker")
	}
	fmt.Printf("countermeasure: neighborhood bid-history detector flags agent 1 (%d violations)\n",
		len(det.Evidence(1)))
	return nil
}

func e5Encodings() error {
	header("E5 — abstraction efficiency: naive vs optimized encodings")
	sc := mcamodel.PaperScope()
	n, err := mcamodel.BuildNaive(sc)
	if err != nil {
		return err
	}
	o, err := mcamodel.BuildOptimized(sc)
	if err != nil {
		return err
	}
	// Sizes are exact; translate time is wall-clock, so each row is the
	// fastest of five runs and the ratio is printed, never asserted.
	measure := func(e *mcamodel.Encoding) mcamodel.Measurement {
		best := mcamodel.MeasureTranslation(e)
		for i := 1; i < 5; i++ {
			if m := mcamodel.MeasureTranslation(e); m.Translate < best.Translate {
				best = m
			}
		}
		return best
	}
	mn := measure(n)
	mo := measure(o)
	fmt.Printf("scope %s\n", sc)
	fmt.Printf("  %s\n  %s\n", mn, mo)
	fmt.Printf("clause reduction: %.1f%% (paper: 259K -> 190K, ~27%%)\n",
		100*(1-float64(mo.Clauses)/float64(mn.Clauses)))
	fmt.Printf("translate time: optimized/naive = %.2f (%s / %s, fastest of 5)\n",
		float64(mo.Translate)/float64(mn.Translate),
		mo.Translate.Round(10*time.Microsecond), mn.Translate.Round(10*time.Microsecond))

	// Portfolio-vs-serial: the same consensus check on the optimized
	// encoding, solved sequentially and by the solver portfolio. Both
	// must agree on the verdict.
	workers := runtime.GOMAXPROCS(0)
	check := engine.Scenario{Name: o.Name, Model: o}
	serial := engine.SAT{}.Verify(context.Background(), check)
	pf := engine.SAT{Workers: workers}.Verify(context.Background(), check)
	fmt.Printf("consensus check, optimized encoding (workers=%d):\n", workers)
	fmt.Printf("  %-22s solve=%8s %s\n", "serial", serial.Stats.SolveTime.Round(time.Millisecond), serial.SATStatus)
	fmt.Printf("  %-22s solve=%8s %s\n", "portfolio", pf.Stats.SolveTime.Round(time.Millisecond), pf.SATStatus)
	if pf.SATStatus != serial.SATStatus {
		return fmt.Errorf("portfolio disagrees with serial: serial=%v portfolio=%v", serial.SATStatus, pf.SATStatus)
	}
	return nil
}

func e6Bound() error {
	header("E6 — consensus within the D·|J| message bound")
	fmt.Printf("%-10s %-6s %-6s %-8s %-8s\n", "topology", "D", "|J|", "bound", "rounds")
	for _, tp := range []graph.Topology{graph.TopologyLine, graph.TopologyRing, graph.TopologyStar, graph.TopologyComplete} {
		n, items := 4, 3
		g := graph.Build(tp, n, 1)
		agents := make([]*mca.Agent, n)
		for i := range agents {
			base := make([]int64, items)
			for j := range base {
				base[j] = int64(10 + (i*7+j*3)%17)
			}
			agents[i] = mca.MustNewAgent(mca.Config{ID: mca.AgentID(i), Items: items, Base: base,
				Policy: mca.Policy{Target: items, Utility: mca.SubmodularResidual{}, ReleaseOutbid: true, Rebid: mca.RebidOnChange}})
		}
		r, err := mca.NewSyncRunner(agents, g)
		if err != nil {
			return err
		}
		bound := mca.MessageBound(g, items)
		out := r.Run(bound + 1)
		if !out.Converged {
			return fmt.Errorf("%v: not converged within the bound", tp)
		}
		fmt.Printf("%-10s %-6d %-6d %-8d %-8d\n", tp, g.Diameter(), items, bound, out.Rounds)
	}
	return nil
}

func e7Static() error {
	header("E7 — static model sanity (run {} for the paper's scope)")
	sc := mcamodel.Scope{PNodes: 3, VNodes: 2, Values: 3, States: 2, Msgs: 1}
	e, err := mcamodel.BuildOptimized(sc)
	if err != nil {
		return err
	}
	ok, m := mcamodel.RunSatisfiable(e, sat.Options{})
	if !ok {
		return fmt.Errorf("static model has no instances")
	}
	fmt.Printf("instance found: %s\n", m)
	return nil
}
