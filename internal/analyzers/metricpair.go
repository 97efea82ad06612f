package analyzers

import (
	"go/ast"
	"go/types"
)

// MetricPair flags packages that register a series set on an obsv-style
// Registry (RegisterSet), declare a Stop/Close/Shutdown lifecycle, and
// never unregister one (UnregisterSet): every registered set in a
// stoppable component must have an unregistration path, or the registry
// accumulates dead series (and collides on keys when the component
// restarts). A call to another package's UnregisterMetrics wrapper counts
// too; a wrapper declared in the package is not taken on its name but
// counts through the Registry calls in its body.
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
	var registers []*ast.CallExpr
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
				case isRegistryMethod(fn, "RegisterSet"):
					registers = append(registers, call)
				case isRegistryMethod(fn, "UnregisterSet"),
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
	for _, call := range registers {
		p.Reportf(call.Pos(), "RegisterSet with no Unregister anywhere in a package that has Stop/Close lifecycle methods; metric series will leak past shutdown")
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

// isRegistryMethod reports whether fn is the method name on a type named
// "Registry" (any package — obsv here, but the shape generalizes to
// prometheus-style registries).
func isRegistryMethod(fn *types.Func, name string) bool {
	named := ReceiverNamed(fn)
	return named != nil && named.Obj().Name() == "Registry" && fn.Name() == name
}
