// Package spanown proves the zero-copy ownership discipline at compile
// time: byte slices that alias the bytes being parsed — a pcapio.Record's
// Data, a tcpreasm.Chunk's Data, a layers.Packet's Payload, the data a
// tcpreasm.Consumer's Feed(time.Time, []byte) method receives — are loans.
// They point into the caller's feed buffer or the reader's carry buffer,
// both reused once the call returns, so a loan may be read, copied, or
// passed down as a call argument, but never retained: storing one in a
// struct field, sending it over a channel, or capturing it in a
// goroutine keeps a pointer into memory that will be rewritten under it.
//
// The analyzer runs a forward taint pass per function: expressions
// derived from a span source (including sub-slices and local aliases)
// are tainted, and a taint reaching a field store, channel send, or
// goroutine is reported. Copies launder taint — append(dst, span...)
// spreads bytes, copy(dst, span) fills dst — and passing a span as an
// ordinary call argument is fine (the callee's own code is analyzed in
// its own pass). Intentional retention (an owner implementing the
// release discipline itself) carries a //lint:allow spanown marker.
package spanown

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzer is the spanown checker.
var Analyzer = &analysis.Analyzer{
	Name: "spanown",
	Doc: "flag retention (field store, channel send, goroutine capture) " +
		"of pcapio/tcpreasm arena sub-slices without an explicit copy",
	Run: run,
}

// spanSources maps (package path suffix, type name) to the field whose
// slices are loans from that type's arena.
var spanFields = map[[2]string]string{
	{"pcapio", "Record"}:  "Data",
	{"tcpreasm", "Chunk"}: "Data",
	{"layers", "Packet"}:  "Payload",
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFunc(pass, fd)
			}
		}
	}
	return nil
}

// checker is the per-function taint state.
type checker struct {
	pass    *analysis.Pass
	tainted map[types.Object]bool
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	c := &checker{pass: pass, tainted: map[types.Object]bool{}}
	if data := feedLoan(pass, fd); data != nil {
		c.tainted[data] = true
	}
	c.walkStmts(fd.Body.List)
}

// feedLoan returns the data parameter of a method shaped like
// tcpreasm.Consumer's Feed(time.Time, []byte): a stream loans a consumer
// its in-order bytes for the call alone, so data is a span source.
func feedLoan(pass *analysis.Pass, fd *ast.FuncDecl) types.Object {
	if fd.Recv == nil || fd.Name.Name != "Feed" {
		return nil
	}
	fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil
	}
	params := fn.Type().(*types.Signature).Params()
	if params.Len() != 2 {
		return nil
	}
	ts, ok := params.At(0).Type().(*types.Named)
	if !ok || ts.Obj().Pkg() == nil || ts.Obj().Pkg().Path() != "time" || ts.Obj().Name() != "Time" {
		return nil
	}
	if !types.Identical(params.At(1).Type(), types.NewSlice(types.Typ[types.Byte])) {
		return nil
	}
	return params.At(1)
}

// walkStmts runs the forward pass over a statement list.
func (c *checker) walkStmts(stmts []ast.Stmt) {
	for _, s := range stmts {
		c.walkStmt(s)
	}
}

func (c *checker) walkStmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.AssignStmt:
		c.assign(st)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for i, name := range vs.Names {
						if i < len(vs.Values) && c.taintedExpr(vs.Values[i]) {
							c.taint(name)
						}
					}
				}
			}
		}
	case *ast.SendStmt:
		if c.taintedExpr(st.Value) {
			c.pass.Reportf(st.Pos(), "spanown: sending an arena span over a "+
				"channel retains it past the feed; copy it "+
				"(append([]byte(nil), s...))")
		}
	case *ast.GoStmt:
		c.checkGo(st)
	case *ast.BlockStmt:
		c.walkStmts(st.List)
	case *ast.IfStmt:
		if st.Init != nil {
			c.walkStmt(st.Init)
		}
		c.walkStmts(st.Body.List)
		if st.Else != nil {
			c.walkStmt(st.Else)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			c.walkStmt(st.Init)
		}
		c.walkStmts(st.Body.List)
	case *ast.RangeStmt:
		if c.taintedExpr(st.X) {
			// Ranging over a tainted [][]byte taints the element binding.
			if id, ok := st.Value.(*ast.Ident); ok {
				c.taint(id)
			}
		}
		c.walkStmts(st.Body.List)
	case *ast.SwitchStmt:
		for _, cc := range st.Body.List {
			if clause, ok := cc.(*ast.CaseClause); ok {
				c.walkStmts(clause.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, cc := range st.Body.List {
			if clause, ok := cc.(*ast.CaseClause); ok {
				c.walkStmts(clause.Body)
			}
		}
	case *ast.SelectStmt:
		for _, cc := range st.Body.List {
			if clause, ok := cc.(*ast.CommClause); ok {
				if clause.Comm != nil {
					c.walkStmt(clause.Comm)
				}
				c.walkStmts(clause.Body)
			}
		}
	case *ast.LabeledStmt:
		c.walkStmt(st.Stmt)
	case *ast.ExprStmt:
		// Calls with func-literal arguments: analyze the literal bodies
		// with the current taint (synchronous callbacks see live spans;
		// retention inside them is still retention).
		ast.Inspect(st.X, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				c.walkStmts(fl.Body.List)
				return false
			}
			return true
		})
	}
}

// assign updates taint and reports tainted stores into fields/indexes.
func (c *checker) assign(st *ast.AssignStmt) {
	for i, lhs := range st.Lhs {
		var rhs ast.Expr
		if len(st.Rhs) == len(st.Lhs) {
			rhs = st.Rhs[i]
		} else if len(st.Rhs) == 1 {
			rhs = st.Rhs[0] // multi-value: be conservative, taint nothing
			if i > 0 {
				continue
			}
			if _, ok := rhs.(*ast.CallExpr); ok {
				continue
			}
		}
		if rhs == nil {
			continue
		}
		hot := c.taintedExpr(rhs)
		switch l := lhs.(type) {
		case *ast.Ident:
			if l.Name == "_" {
				continue
			}
			if hot {
				c.taint(l)
			} else if obj := c.objOf(l); obj != nil {
				delete(c.tainted, obj)
			}
		case *ast.SelectorExpr:
			if hot && c.isFieldStore(l) {
				c.pass.Reportf(st.Pos(), "spanown: storing an arena span in a "+
					"struct field retains it past the feed; copy it "+
					"(append([]byte(nil), s...))")
			}
		case *ast.IndexExpr:
			if hot {
				c.pass.Reportf(st.Pos(), "spanown: storing an arena span in a "+
					"container retains it past the feed; copy it "+
					"(append([]byte(nil), s...)) first")
			}
		}
	}
}

// checkGo reports spans escaping into a goroutine: tainted arguments, or
// tainted free variables captured by a func literal.
func (c *checker) checkGo(st *ast.GoStmt) {
	for _, arg := range st.Call.Args {
		if c.taintedExpr(arg) {
			c.pass.Reportf(st.Pos(), "spanown: goroutine receives an arena span; "+
				"the arena may recycle it concurrently — copy it before handing off")
			return
		}
	}
	if fl, ok := st.Call.Fun.(*ast.FuncLit); ok {
		reported := false
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			if reported {
				return false
			}
			if id, ok := n.(*ast.Ident); ok {
				if obj := c.objOf(id); obj != nil && c.tainted[obj] {
					c.pass.Reportf(st.Pos(), "spanown: goroutine closure captures "+
						"arena span %q; the arena may recycle it concurrently — "+
						"copy it before handing off", id.Name)
					reported = true
				}
			}
			return true
		})
	}
}

func (c *checker) taint(id *ast.Ident) {
	if obj := c.defOrUse(id); obj != nil {
		c.tainted[obj] = true
	}
}

func (c *checker) objOf(id *ast.Ident) types.Object {
	return c.defOrUse(id)
}

func (c *checker) defOrUse(id *ast.Ident) types.Object {
	if obj, ok := c.pass.TypesInfo.Defs[id]; ok && obj != nil {
		return obj
	}
	return c.pass.TypesInfo.Uses[id]
}

// isFieldStore reports whether sel names a struct field (not a package
// member or method).
func (c *checker) isFieldStore(sel *ast.SelectorExpr) bool {
	s, ok := c.pass.TypesInfo.Selections[sel]
	return ok && s.Kind() == types.FieldVal
}

// taintedExpr reports whether e evaluates to an arena span.
func (c *checker) taintedExpr(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Ident:
		obj := c.objOf(x)
		return obj != nil && c.tainted[obj]
	case *ast.ParenExpr:
		return c.taintedExpr(x.X)
	case *ast.SelectorExpr:
		return c.isSpanField(x)
	case *ast.SliceExpr:
		return c.taintedExpr(x.X)
	case *ast.CallExpr:
		return c.taintedCall(x)
	}
	return false
}

// isSpanField matches sel against the span-loan fields (Record.Data,
// Chunk.Data, Packet.Payload).
func (c *checker) isSpanField(sel *ast.SelectorExpr) bool {
	s, ok := c.pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return false
	}
	recv := s.Recv()
	for {
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
			continue
		}
		break
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	key := [2]string{lastSegment(named.Obj().Pkg().Path()), named.Obj().Name()}
	return spanFields[key] == sel.Sel.Name
}

// taintedCall propagates taint through append, which carries a loan
// when a span is appended as an element (appending its bytes with ... is
// a copy).
func (c *checker) taintedCall(call *ast.CallExpr) bool {
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" {
		if obj := c.pass.TypesInfo.Uses[id]; obj == types.Universe.Lookup("append") {
			if len(call.Args) > 0 && c.taintedExpr(call.Args[0]) {
				return true
			}
			for _, a := range call.Args[1:] {
				if c.taintedExpr(a) {
					// span... spreads bytes into a fresh backing array — a
					// copy; span as an element keeps the slice header.
					if call.Ellipsis.IsValid() && a == call.Args[len(call.Args)-1] {
						continue
					}
					return true
				}
			}
		}
	}
	return false
}

func lastSegment(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
