// Package lint assembles the wmlint suite: the analyzers that prove the
// engine's invariants (determinism, span ownership,
// event exhaustiveness, documented surface) and the driver that runs
// them over module packages, honoring //lint:allow markers.
//
// The suite is stdlib-only by necessity — the build environment is
// offline and golang.org/x/tools is not vendored — so the framework
// under internal/lint/analysis mirrors the go/analysis contract locally
// and cmd/wmlint is the multichecker. The analyzers would port to the
// upstream framework (and go vet -vettool) mechanically if the
// dependency ever lands.
package lint

import (
	"fmt"
	"go/token"
	"io"

	"repro/internal/lint/analysis"
	"repro/internal/lint/detrand"
	"repro/internal/lint/doccheck"
	"repro/internal/lint/eventcase"
	"repro/internal/lint/loader"
	"repro/internal/lint/spanown"
)

// Suite is the wmlint analyzer set, in reporting order.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		detrand.Analyzer,
		spanown.Analyzer,
		eventcase.Analyzer,
		doccheck.Analyzer,
	}
}

// Result is one driver run's outcome.
type Result struct {
	// Fset positions the diagnostics.
	Fset *token.FileSet
	// Diags are the unsuppressed findings, in presentation order.
	Diags []analysis.Diagnostic
	// Suppressed are findings silenced by //lint:allow markers.
	Suppressed []analysis.Diagnostic
	// Unused are markers that silenced nothing (stale exceptions).
	Unused []analysis.Allow
	// Packages counts the packages analyzed.
	Packages int
}

// Run loads the packages matching patterns in the module at dir and
// runs the whole suite over them.
func Run(dir string, patterns ...string) (*Result, error) {
	pkgs, err := loader.LoadModule(dir, patterns...)
	if err != nil {
		return nil, err
	}
	res := &Result{Packages: len(pkgs)}
	for _, pkg := range pkgs {
		res.Fset = pkg.Fset
		allows, badMarkers := analysis.CollectAllows(pkg.Fset, pkg.Files)
		var diags []analysis.Diagnostic
		diags = append(diags, badMarkers...)
		for _, a := range Suite() {
			if a.AppliesTo != nil && !a.AppliesTo(pkg.Path) {
				continue
			}
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Path:      pkg.Path,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("wmlint: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
		kept, suppressed, unused := analysis.FilterAllowed(pkg.Fset, diags, allows)
		res.Diags = append(res.Diags, kept...)
		res.Suppressed = append(res.Suppressed, suppressed...)
		res.Unused = append(res.Unused, unused...)
	}
	return res, nil
}

// Print renders a run's findings the way a compiler would, one line per
// diagnostic, followed by a summary.
func (r *Result) Print(w io.Writer) {
	for _, d := range r.Diags {
		fmt.Fprintf(w, "%s: %s\n", r.Fset.Position(d.Pos), d.Message)
	}
	for _, a := range r.Unused {
		fmt.Fprintf(w, "%s:%d: unused lint:allow %s marker (%s) — delete it\n",
			a.File, a.Line, a.Analyzer, a.Reason)
	}
	fmt.Fprintf(w, "wmlint: %d packages, %d findings (%d suppressed by lint:allow)\n",
		r.Packages, len(r.Diags), len(r.Suppressed))
}

// Clean reports whether the run found nothing actionable: no
// unsuppressed diagnostics and no stale markers.
func (r *Result) Clean() bool {
	return len(r.Diags) == 0 && len(r.Unused) == 0
}
