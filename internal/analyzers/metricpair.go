package analyzers

import (
	"go/ast"
	"go/types"
)

// MetricPair flags packages that register metric series on an obsv-style
// Registry (Register, MustRegister, or RegisterSet — one entry for many
// series), declare a Stop/Close/Shutdown lifecycle, and never unregister
// (Unregister, UnregisterSet): every registered series in a stoppable
// component must have an unregistration path, or the registry accumulates
// dead series (and collides on names when the component restarts). A call
// to another package's UnregisterMetrics wrapper counts too; a wrapper
// declared in the package is not taken on its name but counts through the
// Registry calls in its body.
//
// Bug class: the PR 5 metrics leak — transports registered a dozen
// transport_* series at construction and removed none of them on Close,
// so a scrape after Close read freed state and a reconstructed transport
// failed with duplicate-name registration errors.
var MetricPair = &Analyzer{
	Name: "metricpair",
	Doc: "a package with Stop/Close lifecycle methods that registers " +
		"metrics must also unregister them (historical: PR 5 series " +
		"leaked past transport Close)",
	Run: runMetricPair,
}

func runMetricPair(p *Pass) error {
	type site struct {
		pos  ast.Node
		name string
	}
	var registers []site
	unregisters := false
	lifecycle := false

	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			// A lifecycle method on a type declared in this package.
			if fd.Recv != nil && isLifecycleName(fd.Name.Name) {
				lifecycle = true
			}
			if fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := p.CalleeFunc(call)
				if fn == nil {
					return true
				}
				switch {
				case isRegistryMethod(fn, "Register", "MustRegister", "RegisterSet"):
					// Calls from within the registry implementation
					// itself (e.g. MustRegister calling Register) are
					// plumbing, not leak sites.
					if owner := ReceiverNamed(fn); owner != nil && sameNamed(owner, enclosingReceiver(p, fd)) {
						return true
					}
					registers = append(registers, site{pos: call, name: fn.Name()})
				case isRegistryMethod(fn, "Unregister", "UnregisterSet"),
					fn.Pkg() != p.Pkg && fn.Name() == "UnregisterMetrics":
					unregisters = true
				}
				return true
			})
		}
	}

	if !lifecycle || unregisters {
		return nil
	}
	for _, s := range registers {
		p.Reportf(s.pos.Pos(), "%s with no Unregister anywhere in a package that has Stop/Close lifecycle methods; metric series will leak past shutdown", s.name)
	}
	return nil
}

func isLifecycleName(name string) bool {
	switch name {
	case "Stop", "Close", "Shutdown":
		return true
	}
	return false
}

// isRegistryMethod reports whether fn is a method with one of the given
// names on a type named "Registry" (any package — obsv here, but the
// shape generalizes to prometheus-style registries).
func isRegistryMethod(fn *types.Func, names ...string) bool {
	named := ReceiverNamed(fn)
	if named == nil || named.Obj().Name() != "Registry" {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// enclosingReceiver returns the named receiver type of the method
// declaration fd, or nil.
func enclosingReceiver(p *Pass, fd *ast.FuncDecl) *types.Named {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	t := p.TypesInfo.Types[fd.Recv.List[0].Type].Type
	if t == nil {
		return nil
	}
	return namedOf(t)
}

func sameNamed(a, b *types.Named) bool {
	return a != nil && b != nil && a.Obj() == b.Obj()
}
