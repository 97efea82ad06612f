// Package analyzers is barriervet: a suite of static analyzers encoding
// the protocol and concurrency invariants this codebase depends on, so
// that the bug classes the repo has already paid for once — seqlock
// tearing from mixed atomic/plain access, alloc-before-oversize-check in
// the wire codec, state commits on canceled Await paths, metric series
// leaked past a Stop/Close, nondeterminism inside guarded engine steps,
// inconsistent lock order — are rejected at review time instead of found
// by the fuzzer at soak time.
//
// The package is a deliberately small reimplementation of the
// golang.org/x/tools go/analysis vocabulary (Analyzer, Pass, Diagnostic)
// on top of the standard library alone: packages are enumerated with
// `go list -deps -export -json`, parsed with go/parser, and type-checked
// with go/types against the toolchain's export data, so the suite needs
// no module downloads and runs anywhere the go command does. Each
// analyzer sees one fully type-checked package per Pass; analyzers that
// need a whole-program view (lock ordering across the runtime/transport/
// groups boundary) implement RunProgram instead.
//
// False positives are suppressed in the source with
//
//	//barriervet:ignore <reason>
//
// on the flagged line or alone on the line above it. The reason is
// mandatory — a bare directive is itself a finding — and so is use: a
// directive that suppresses nothing is reported, which keeps stale
// suppressions from outliving the code they excused.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one invariant checker. Exactly one of Run and
// RunProgram must be set: Run is invoked once per type-checked package,
// RunProgram once with every loaded package (for cross-package
// invariants).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -run filters.
	Name string
	// Doc is the one-paragraph description printed by -list: the
	// invariant, and the historical bug class that motivates it.
	Doc string
	// Run analyzes one package.
	Run func(*Pass) error
	// RunProgram analyzes the whole loaded program.
	RunProgram func(*Program) error
}

// A Pass provides one analyzer with one type-checked package and a sink
// for its diagnostics — the go/analysis shape, minus facts.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// A Program is the whole-program view handed to RunProgram analyzers:
// every loaded package, sharing one FileSet.
type Program struct {
	Fset     *token.FileSet
	Packages []*Pass
}

// A Diagnostic is one finding, positioned and attributed.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Inspect walks every file of the pass in source order, calling fn as
// ast.Inspect does.
func (p *Pass) Inspect(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// Callee resolves the object a call expression invokes: a *types.Func
// for static function and method calls, a *types.Var for calls through
// function-valued fields or variables, a *types.Builtin for builtins,
// nil for indirect calls through arbitrary expressions.
func (p *Pass) Callee(call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return p.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		return p.TypesInfo.Uses[fun.Sel]
	}
	return nil
}

// CalleeFunc is Callee narrowed to *types.Func (nil otherwise).
func (p *Pass) CalleeFunc(call *ast.CallExpr) *types.Func {
	fn, _ := p.Callee(call).(*types.Func)
	return fn
}

// ReceiverNamed returns the named type of a method's receiver (through
// one pointer), or nil for functions and methods on unnamed receivers.
func ReceiverNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return namedOf(sig.Recv().Type())
}

// namedOf unwraps pointers down to a *types.Named, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}

// enclosingFuncDecl returns the function declaration whose body contains
// pos, or nil.
func enclosingFuncDecl(files []*ast.File, pos token.Pos) *ast.FuncDecl {
	for _, f := range files {
		if pos < f.Pos() || pos > f.End() {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos <= fd.End() {
				return fd
			}
		}
	}
	return nil
}
