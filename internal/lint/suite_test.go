package lint_test

import (
	"bytes"
	"testing"

	"repro/internal/lint"
)

// TestSuiteShape pins the analyzer roster: four checkers, in reporting
// order, each with a name and doc.
func TestSuiteShape(t *testing.T) {
	want := []string{"detrand", "spanown", "eventcase", "doccheck"}
	suite := lint.Suite()
	if len(suite) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(suite), len(want))
	}
	for i, a := range suite {
		if a.Name != want[i] {
			t.Errorf("suite[%d] = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %s has no doc", a.Name)
		}
		if a.Run == nil {
			t.Errorf("analyzer %s has no run function", a.Name)
		}
	}
}

// TestTreeIsClean is the wmlint smoke test: the whole module must carry
// zero unsuppressed diagnostics and zero stale //lint:allow markers.
// This is the same bar CI's lint-invariants job enforces via
// `go run ./cmd/wmlint ./...`.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	res, err := lint.Run("../..", "./...")
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	if res.Packages == 0 {
		t.Fatal("lint.Run analyzed zero packages — loader matched nothing")
	}
	if !res.Clean() {
		var buf bytes.Buffer
		res.Print(&buf)
		t.Errorf("tree is not lint-clean:\n%s", buf.String())
	}
}
