// Package atomiccursor proves the shared-cursor discipline at compile
// time: a struct field that any code in the package accesses through
// sync/atomic (atomic.LoadUint64(&s.f), atomic.AddInt64(&s.f), ...) is
// a shared cursor, and every other access to it must be atomic too. A
// plain read or write of such a field — typically a "it's only stats"
// shortcut — is the bug class any cross-goroutine cursor is open to,
// such as the next-task index internal/parallel's workers claim work
// through: the racy access tears, or the compiler hoists it out of the
// loop that was supposed to observe the other goroutine's store.
//
// Fields declared with the typed atomics (atomic.Uint64 and friends)
// are immune by construction — plain access doesn't compile — which is
// also the sanctioned migration the diagnostic suggests.
package atomiccursor

import (
	"fmt"
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// Analyzer is the atomiccursor checker.
var Analyzer = &analysis.Analyzer{
	Name: "atomiccursor",
	Doc: "a struct field accessed via sync/atomic anywhere in the package " +
		"must never be read or written plainly elsewhere",
	Run: run,
}

func run(pass *analysis.Pass) error {
	// Pass 1: collect the fields used atomically, and remember the
	// selector nodes that appear inside atomic call arguments so pass 2
	// can skip them.
	atomicFields := map[types.Object]string{} // field -> atomic func name
	inAtomicArg := map[*ast.SelectorExpr]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
				return true
			}
			for _, arg := range call.Args {
				un, ok := arg.(*ast.UnaryExpr)
				if !ok || un.Op.String() != "&" {
					continue
				}
				fieldSel, ok := un.X.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				s, ok := pass.TypesInfo.Selections[fieldSel]
				if !ok || s.Kind() != types.FieldVal {
					continue
				}
				atomicFields[s.Obj()] = fn.Name()
				inAtomicArg[fieldSel] = true
			}
			return true
		})
	}
	if len(atomicFields) == 0 {
		return nil
	}
	// Pass 2: every other selector of those fields is a racy plain
	// access.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || inAtomicArg[sel] {
				return true
			}
			s, ok := pass.TypesInfo.Selections[sel]
			if !ok || s.Kind() != types.FieldVal {
				return true
			}
			if fnName, hot := atomicFields[s.Obj()]; hot {
				pass.Reportf(sel.Pos(), "atomiccursor: plain access to field %s, "+
					"which %s elsewhere in this package accesses atomically — the "+
					"race tears or gets hoisted; use sync/atomic here too, or "+
					"migrate the field to the typed atomic.%s",
					fieldDesc(s), "atomic."+fnName, typedAtomicFor(s.Obj().Type()))
			}
			return true
		})
	}
	return nil
}

// fieldDesc renders Type.field for the diagnostic.
func fieldDesc(s *types.Selection) string {
	recv := s.Recv()
	for {
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
			continue
		}
		break
	}
	name := recv.String()
	if named, ok := recv.(*types.Named); ok {
		name = named.Obj().Name()
	}
	return fmt.Sprintf("%s.%s", name, s.Obj().Name())
}

// typedAtomicFor names the sync/atomic wrapper type for a plain field
// type (the migration the diagnostic suggests).
func typedAtomicFor(t types.Type) string {
	if b, ok := t.Underlying().(*types.Basic); ok {
		switch b.Kind() {
		case types.Uint32:
			return "Uint32"
		case types.Uint64:
			return "Uint64"
		case types.Int32:
			return "Int32"
		case types.Int64:
			return "Int64"
		case types.Bool:
			return "Bool"
		case types.Uintptr:
			return "Uintptr"
		}
	}
	return "Value"
}
