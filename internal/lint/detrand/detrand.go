// Package detrand proves the reproducibility invariant at compile time:
// in determinism-critical packages, output may depend only on explicit
// inputs (seed, capture bytes, configuration) — never on wall clocks,
// process-global randomness, undocumented environment, or map iteration
// order.
//
// The paper reproduction's headline guarantee is byte-identical output
// at any worker count (WM_WORKERS) and byte-identical Monitor event
// streams and inferences at any feed granularity. The equivalence tests
// enforce that dynamically; this analyzer rejects the four
// nondeterminism sources that have historically threatened it:
//
//   - time.Now / time.Since: wall-clock reads. Time must come from the
//     capture clock (packet timestamps) or the simulated session clock.
//   - package-global math/rand: draws from a process-shared source that
//     scheduling perturbs. Use a forked seeded stream (wire.RNG.Stream).
//   - os.Getenv outside documented knobs (WM_WORKERS): ambient
//     environment silently changing results.
//   - ranging over a map while appending to an outer slice, sending on a
//     channel, or emitting events: iteration order leaks into ordered
//     output. Collect keys and sort first (the sortedKeys idiom); an
//     append that is sorted later in the same block is sanctioned.
package detrand

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// criticalSegments are the determinism-critical packages, identified by
// the final import-path segment (so fixtures named like the real
// packages exercise the analyzer).
var criticalSegments = map[string]bool{
	"session":   true,
	"dataset":   true,
	"statejson": true,
	"wire":      true,
	"parallel":  true,
	"attack":    true,
	"capture":   true,
	"quicrec":   true,
	"tcpreasm":  true,
}

// allowedEnv are the documented environment knobs (README "Performance";
// everything else must arrive through explicit configuration).
var allowedEnv = map[string]bool{
	"WM_WORKERS": true,
}

// globalRandExempt are the math/rand package functions that do NOT touch
// the process-global source: constructors for explicitly-seeded
// generators are exactly the sanctioned alternative.
var globalRandExempt = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

// Analyzer is the detrand checker.
var Analyzer = &analysis.Analyzer{
	Name: "detrand",
	Doc: "forbid wall clocks, global randomness, undocumented env and " +
		"map-order-dependent emission in determinism-critical packages",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !criticalSegments[lastSegment(pass.Path)] {
		return nil
	}
	for _, f := range pass.Files {
		checkSelectors(pass, f)
		checkMapRanges(pass, f)
	}
	return nil
}

func lastSegment(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// funcPkgPath resolves an identifier to a package-level function and
// returns its package path and name.
func funcPkgPath(pass *analysis.Pass, id *ast.Ident) (string, string, bool) {
	obj, ok := pass.TypesInfo.Uses[id]
	if !ok {
		return "", "", false
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", "", false
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		return "", "", false // methods never alias the globals we ban
	}
	return fn.Pkg().Path(), fn.Name(), true
}

// checkSelectors flags every reference — call or function value — to a
// banned package-level function.
func checkSelectors(pass *analysis.Pass, f *ast.File) {
	// os.Getenv/LookupEnv are judged per call site (the argument decides),
	// so remember which selector nodes belong to a sanctioned call.
	envOK := map[*ast.Ident]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id := calleeIdent(call.Fun)
		if id == nil {
			return true
		}
		pkg, name, ok := funcPkgPath(pass, id)
		if !ok || pkg != "os" || (name != "Getenv" && name != "LookupEnv") {
			return true
		}
		if len(call.Args) == 1 {
			if tv, ok := pass.TypesInfo.Types[call.Args[0]]; ok && tv.Value != nil {
				key := strings.Trim(tv.Value.String(), `"`)
				if allowedEnv[key] {
					envOK[id] = true
					return true
				}
			}
		}
		return true
	})
	ast.Inspect(f, func(n ast.Node) bool {
		id := identOf(n)
		if id == nil {
			return true
		}
		pkg, name, ok := funcPkgPath(pass, id)
		if !ok {
			return true
		}
		switch {
		case pkg == "time" && (name == "Now" || name == "Since" || name == "Until"):
			pass.Reportf(id.Pos(), "detrand: time.%s reads the wall clock in "+
				"determinism-critical package %s; derive time from the capture "+
				"clock (packet timestamps) or the session clock", name, pass.Path)
		case (pkg == "math/rand" || pkg == "math/rand/v2") && !globalRandExempt[name]:
			pass.Reportf(id.Pos(), "detrand: math/rand.%s draws from the "+
				"process-global source; fork a seeded stream instead "+
				"(wire.RNG.Stream)", name)
		case pkg == "os" && (name == "Getenv" || name == "LookupEnv") && !envOK[id]:
			pass.Reportf(id.Pos(), "detrand: os.%s outside the documented knobs "+
				"(WM_WORKERS) couples output to the ambient environment; thread "+
				"the setting through explicit configuration", name)
		}
		return true
	})
}

// identOf unwraps the identifier a selector or bare reference names.
func identOf(n ast.Node) *ast.Ident {
	switch e := n.(type) {
	case *ast.SelectorExpr:
		return e.Sel
	}
	return nil
}

// calleeIdent unwraps a call's function expression to its identifier.
func calleeIdent(fun ast.Expr) *ast.Ident {
	switch e := fun.(type) {
	case *ast.Ident:
		return e
	case *ast.SelectorExpr:
		return e.Sel
	case *ast.ParenExpr:
		return calleeIdent(e.X)
	}
	return nil
}

// checkMapRanges flags map iterations whose bodies feed ordered output.
func checkMapRanges(pass *analysis.Pass, f *ast.File) {
	// Walk with enough context to see the statement list a range lives
	// in, so the sanctioned collect-then-sort idiom can be recognized.
	var walkBlock func(stmts []ast.Stmt)
	var walkStmt func(s ast.Stmt, following []ast.Stmt)

	walkBlock = func(stmts []ast.Stmt) {
		for i, s := range stmts {
			walkStmt(s, stmts[i+1:])
		}
	}
	walkStmt = func(s ast.Stmt, following []ast.Stmt) {
		switch st := s.(type) {
		case *ast.RangeStmt:
			if tv, ok := pass.TypesInfo.Types[st.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					checkMapRangeBody(pass, st, following)
				}
			}
			walkBlock(st.Body.List)
		case *ast.BlockStmt:
			walkBlock(st.List)
		case *ast.IfStmt:
			walkBlock(st.Body.List)
			if st.Else != nil {
				walkStmt(st.Else, nil)
			}
		case *ast.ForStmt:
			walkBlock(st.Body.List)
		case *ast.SwitchStmt:
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walkBlock(cc.Body)
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walkBlock(cc.Body)
				}
			}
		case *ast.SelectStmt:
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					walkBlock(cc.Body)
				}
			}
		case *ast.LabeledStmt:
			walkStmt(st.Stmt, following)
		}
	}
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
			walkBlock(fd.Body.List)
		}
	}
	// Function literals anywhere (composite literals, defers, arguments).
	ast.Inspect(f, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			walkBlock(fl.Body.List)
		}
		return true
	})
}

// checkMapRangeBody inspects one map-range body for order leaks.
func checkMapRangeBody(pass *analysis.Pass, rs *ast.RangeStmt, following []ast.Stmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(st.Pos(), "detrand: channel send inside a range over a "+
				"map leaks iteration order; collect into a slice and sort first "+
				"(sortedKeys idiom)")
		case *ast.CallExpr:
			if name := calleeName(st.Fun); name == "emit" || name == "Emit" ||
				name == "onEvent" || name == "OnEvent" {
				pass.Reportf(st.Pos(), "detrand: %s inside a range over a map "+
					"emits events in iteration order; collect, sort, then emit "+
					"(sortedKeys idiom)", name)
				return true
			}
			if isAppendToOuter(pass, st, rs) && !sortedLater(pass, st, following) {
				pass.Reportf(st.Pos(), "detrand: range over map appends to an "+
					"ordered output without a later sort; collect keys and sort "+
					"(sortedKeys idiom) before emitting")
			}
		}
		return true
	})
}

// calleeName names a called function or method.
func calleeName(fun ast.Expr) string {
	if id := calleeIdent(fun); id != nil {
		return id.Name
	}
	return ""
}

// isAppendToOuter reports whether call is append(dst, ...) with dst
// declared outside the range statement (so iteration order escapes it).
func isAppendToOuter(pass *analysis.Pass, call *ast.CallExpr, rs *ast.RangeStmt) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	if obj := pass.TypesInfo.Uses[id]; obj == nil || obj != types.Universe.Lookup("append") {
		return false
	}
	if len(call.Args) == 0 {
		return false
	}
	base, ok := call.Args[0].(*ast.Ident)
	if !ok {
		// Appending straight to a field or index: always an escape.
		return true
	}
	obj := pass.TypesInfo.Uses[base]
	if obj == nil {
		return false
	}
	return obj.Pos() < rs.Pos() || obj.Pos() >= rs.End()
}

// sortedLater reports whether a statement after the range sorts the
// slice the append targets — the sanctioned collect-then-sort idiom.
func sortedLater(pass *analysis.Pass, call *ast.CallExpr, following []ast.Stmt) bool {
	base, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return false
	}
	target := pass.TypesInfo.Uses[base]
	if target == nil {
		return false
	}
	for _, s := range following {
		found := false
		ast.Inspect(s, func(n ast.Node) bool {
			c, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			sel, ok := c.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgID, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			if pn, ok := pass.TypesInfo.Uses[pkgID].(*types.PkgName); !ok ||
				(pn.Imported().Path() != "sort" && pn.Imported().Path() != "slices") {
				return true
			}
			for _, a := range c.Args {
				ast.Inspect(a, func(an ast.Node) bool {
					if aid, ok := an.(*ast.Ident); ok && pass.TypesInfo.Uses[aid] == target {
						found = true
					}
					return !found
				})
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}
