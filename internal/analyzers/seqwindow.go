package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SeqWindow enforces the frame-validation discipline that closed the
// forged-frame hole (DESIGN.md §13) as one rule on one type: a
// neighbour-copy cell — the struct type named cell — is written only
// inside its own methods. Everything a member knows about a neighbour
// lives in cells, and the cell's store sits behind its sequence and phase
// windows, so a receive path that never writes a copy field cannot adopt a
// frame unvalidated; writing one directly reopens the original
// vulnerability: one well-formed forged frame steering a correct member's
// phase.
var SeqWindow = &Analyzer{
	Name: "seqwindow",
	Doc: "a neighbour-copy cell (the struct type named cell) is written " +
		"only inside its own methods: a receive path never assigns a copy " +
		"field, it calls the cell, whose store sits behind the sequence " +
		"windows — or a single forged frame can steer the phase",
	Run: runSeqWindow,
}

func runSeqWindow(p *Pass) error {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fd.Recv != nil && isCell(p.TypesInfo.TypeOf(fd.Recv.List[0].Type)) {
				continue // the cell's own method
			}
			report := func(lhs ast.Expr) {
				if writesCell(p, lhs) {
					p.Reportf(lhs.Pos(), "copy cell written outside its methods (%s in %s); a frame reaches a copy only through the cell's windows",
						types.ExprString(lhs), fd.Name.Name)
				}
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if n.Tok != token.DEFINE {
						for _, lhs := range n.Lhs {
							report(lhs)
						}
					}
				case *ast.IncDecStmt:
					report(n.X)
				}
				return true
			})
		}
	}
	return nil
}

// writesCell reports whether assigning to e writes a cell: e is a cell, or
// a field reached through one (c.sn, n.kid[i].live.triple.ph, *c).
func writesCell(p *Pass, e ast.Expr) bool {
	for {
		if isCell(p.TypesInfo.TypeOf(e)) {
			return true
		}
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return false
		}
	}
}

// isCell reports whether t is the type named cell, or a pointer to it.
func isCell(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "cell"
}
