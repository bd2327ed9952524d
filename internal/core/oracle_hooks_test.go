package core_test

import (
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/dsl"
)

// The executor oracle (exec_oracle_test.go) is an internal test, and dsl
// imports core, so the fixtures it takes from this side of the package
// boundary are handed over here: the range tests' decompositions, and the
// relation and first decomposition of spec/flows.rel as the DSL parses them.
func init() {
	core.OracleRangeDecomps = rangeDecomps
	core.OracleFlowsRel = func(t *testing.T) (*core.Spec, *decomp.Decomp) {
		t.Helper()
		src, err := os.ReadFile("../../spec/flows.rel")
		if err != nil {
			t.Fatal(err)
		}
		f, err := dsl.ParseFile("spec/flows.rel", string(src))
		if err != nil {
			t.Fatal(err)
		}
		return f.Relation("flows"), f.Decomp("flows").D
	}
}
