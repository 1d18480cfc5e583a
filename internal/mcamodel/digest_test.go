package mcamodel

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/relalg"
)

// benchScope is the scope the repo benchmark's sat-check workload sends.
func benchScope() Scope {
	return Scope{PNodes: 3, VNodes: 2, Values: 4, States: 4, Msgs: 2, IntBitwidth: 3}
}

// The exported CNF of the consensus check is pinned byte for byte, not
// just by size: gate creation order fixes node ids, Tseitin variable
// numbering and clause order, so any translator change that keeps these
// digests provably emits the same program to the solver. Counts may
// only fall; a legitimate reduction re-pins digest and counts together.
func TestConsensusCNFDigest(t *testing.T) {
	cases := []struct {
		name                    string
		build                   func(Scope) (*Encoding, error)
		scope                   Scope
		clauses, aux, primaries int
		digest                  string
	}{
		{"optimized/bench", BuildOptimized, benchScope(), 40820, 10890, 437,
			"9b9f9ad6c19cf6e2a8ccfa19a7c556ebfb935f8a6d1935823c0be3283645b817"},
		{"naive/bench", BuildNaive, benchScope(), 22121, 5951, 529,
			"261854192e77b175f82749d0365b2a72a418ea5adf083cf7c9f06278de64dc12"},
		{"optimized/paper", BuildOptimized, PaperScope(), 27742, 7465, 363,
			"8b4c5e3b778524cdf4e08be0b5968e39f8b29a0cb0fafeb7662d489092db0373"},
		{"naive/paper", BuildNaive, PaperScope(), 45057, 11494, 733,
			"ac562f6ea79d9a7ed3f2d892f6d42a0a7014fb3e344f769e1f6285693b469040"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := tc.build(tc.scope)
			if err != nil {
				t.Fatal(err)
			}
			cnf, st := relalg.TranslateToCNF(e.Bounds, relalg.And(e.Background, relalg.Not(e.Consensus)))
			if st.Clauses != tc.clauses || st.AuxVars != tc.aux || st.PrimaryVars != tc.primaries {
				t.Errorf("size = %d clauses / %d aux / %d primary, want %d / %d / %d",
					st.Clauses, st.AuxVars, st.PrimaryVars, tc.clauses, tc.aux, tc.primaries)
			}
			h := sha256.New()
			if err := cnf.WriteDIMACS(h); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.digest {
				t.Errorf("DIMACS sha256 = %s, want %s", got, tc.digest)
			}
		})
	}
}
