package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AllocBound requires that, inside transport packages, a byte-slice
// allocation whose length comes from a variable is dominated by a
// bounds check on that variable in the same function.
//
// Bug class: the wire codec's oversize allocation — its frame decoder read
// a length word off the wire and passed it straight to make([]byte, n), so a
// corrupt or hostile peer holding one TCP connection could make the
// process allocate gigabytes. The fix compares n against MaxPayload
// before allocating; this analyzer makes that ordering mandatory for
// every future codec path.
var AllocBound = &Analyzer{
	Name: "allocbound",
	Doc: "in transport packages, make([]byte, n) with a variable length " +
		"must be preceded by a bounds check on n (historical: PR 3 " +
		"wire-length oversize allocation)",
	Run: runAllocBound,
}

func runAllocBound(p *Pass) error {
	// Scope: packages named "transport" — the layer that turns untrusted
	// bytes into allocations. Elsewhere lengths are locally computed and
	// the check would be noise.
	if p.Pkg.Name() != "transport" {
		return nil
	}

	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkAllocBoundFunc(p, fd)
		}
	}
	return nil
}

func checkAllocBoundFunc(p *Pass, fd *ast.FuncDecl) {
	// Collect guard positions: each if-statement whose condition compares
	// some variable with an ordering operator and whose body bails out
	// (return or panic) guards that variable from its position onward.
	type guard struct {
		vars map[*types.Var]bool
		pos  token.Pos
	}
	var guards []guard
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		vars := comparedVars(p.TypesInfo, ifs.Cond)
		if len(vars) == 0 || !bailsOut(ifs.Body) {
			return true
		}
		guards = append(guards, guard{vars: vars, pos: ifs.Pos()})
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if b, ok := p.Callee(call).(*types.Builtin); !ok || b.Name() != "make" {
			return true
		}
		if len(call.Args) < 2 || !isByteSlice(p.TypesInfo, call.Args[0]) {
			return true
		}
		size := call.Args[1]
		if p.TypesInfo.Types[size].Value != nil {
			return true // constant size
		}
		sizeVars := sizeExprVars(p.TypesInfo, size)
		if sizeVars == nil {
			return true // size derives from len()/cap() — intrinsically bounded
		}
		for v := range sizeVars {
			guarded := false
			for _, g := range guards {
				if g.pos < call.Pos() && g.vars[v] {
					guarded = true
					break
				}
			}
			if !guarded {
				p.Reportf(call.Pos(), "make([]byte, ...) sized by %s without a preceding bounds check on it", v.Name())
			}
		}
		return true
	})
}

// comparedVars returns the variables that appear as an operand of an
// ordering comparison (< <= > >=) anywhere in cond.
func comparedVars(info *types.Info, cond ast.Expr) map[*types.Var]bool {
	vars := make(map[*types.Var]bool)
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op {
		case token.LSS, token.LEQ, token.GTR, token.GEQ:
			for _, side := range []ast.Expr{be.X, be.Y} {
				ast.Inspect(side, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok {
						if v, ok := info.Uses[id].(*types.Var); ok {
							vars[v] = true
						}
					}
					return true
				})
			}
		}
		return true
	})
	if len(vars) == 0 {
		return nil
	}
	return vars
}

// bailsOut reports whether the block unconditionally leaves the
// function: its last statement is a return, a panic call, or an
// os.Exit-style terminator.
func bailsOut(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch s := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// sizeExprVars returns the variables a size expression depends on, or
// nil if every variable in it flows from len()/cap() of local data (a
// size that cannot exceed what is already resident).
func sizeExprVars(info *types.Info, size ast.Expr) map[*types.Var]bool {
	vars := make(map[*types.Var]bool)
	unbounded := false
	ast.Inspect(size, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			if b, ok := info.Uses[calleeIdent(e)].(*types.Builtin); ok && (b.Name() == "len" || b.Name() == "cap") {
				return false // bounded by existing data; skip its operand
			}
		case *ast.Ident:
			if v, ok := info.Uses[e].(*types.Var); ok {
				vars[v] = true
				unbounded = true
			}
		case *ast.SelectorExpr:
			if v := fieldVar(info, e); v != nil {
				vars[v] = true
				unbounded = true
				return false
			}
		}
		return true
	})
	if !unbounded {
		return nil
	}
	return vars
}

func calleeIdent(call *ast.CallExpr) *ast.Ident {
	id, _ := ast.Unparen(call.Fun).(*ast.Ident)
	return id
}

// isByteSlice reports whether the type expression denotes []byte.
func isByteSlice(info *types.Info, typeExpr ast.Expr) bool {
	t := info.Types[typeExpr].Type
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint8
}
