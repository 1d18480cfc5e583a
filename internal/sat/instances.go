package sat

// PigeonholeCNF builds PHP(n+1, n): n+1 pigeons into n holes. The
// family is unsatisfiable and exponentially hard for resolution-based
// solvers, which makes it the standard calibrated-difficulty instance
// for the cancellation tests and the solver and portfolio benchmarks.
func PigeonholeCNF(n int) *CNF {
	f := &CNF{NumVars: (n + 1) * n}
	v := func(i, j int) Var { return Var(i*n + j) }
	for i := 0; i <= n; i++ {
		lits := make([]Lit, n)
		for j := 0; j < n; j++ {
			lits[j] = PosLit(v(i, j))
		}
		f.AddClause(lits...)
	}
	for j := 0; j < n; j++ {
		for i := 0; i <= n; i++ {
			for k := i + 1; k <= n; k++ {
				f.AddClause(NegLit(v(i, j)), NegLit(v(k, j)))
			}
		}
	}
	return f
}
