package analysis

import (
	"go/ast"
	"go/types"
)

// hotPath enforces the metric plane's API split on the packages that
// publish or read metrics every simulation tick. The interned tiers
// (Store.Row/Handle/Lookup once at build time, Row.Append and
// Handle.Append/Stat/... per tick) are allocation-free; the map-keyed
// compatibility wrappers rebuild the canonical key from the dimension map
// on every call. One wrapper call inside a tick is invisible in tests and
// a steady allocation+lock tax at a million flows — the exact hot/cold separation Polynesia
// argues must be enforced, not hoped for.
type hotPath struct{}

func newHotPath() *hotPath { return &hotPath{} }

func (*hotPath) Name() string { return "hotpath" }

func (*hotPath) Doc() string {
	return "per-tick packages may not call map-keyed metricstore wrappers nor resolve handles or rows / build MetricIDs inside loops — Handle/Row/Lookup at build time only"
}

// hotPathPackages are the packages on the per-tick path: every simulated
// platform publisher plus the control loop and the simulation harness
// that drives them — and the query engine, whose executor runs under
// frame locks while pacers append, so per-row resolution or map-keyed
// reads there would stall every writer.
var hotPathPackages = map[string]bool{
	"repro/internal/stream":   true,
	"repro/internal/compute":  true,
	"repro/internal/kvstore":  true,
	"repro/internal/workload": true,
	"repro/internal/billing":  true,
	"repro/internal/control":  true,
	"repro/internal/sim":      true,
	"repro/internal/query":    true,
}

// storeWrappers are the map-keyed compatibility methods of
// metricstore.Store, banned on the hot path outright.
var storeWrappers = map[string]bool{
	"Put": true, "MustPut": true, "GetStatistics": true,
	"Latest": true, "Raw": true,
}

// storeResolvers intern metric identities; legal on the hot path only
// outside loops (resolve once, then append/read through the handle or
// row).
var storeResolvers = map[string]bool{
	"Handle": true, "MustHandle": true, "Lookup": true,
	"Row": true, "MustRow": true,
}

const metricstorePath = "repro/internal/metricstore"

func (a *hotPath) Run(p *Pass) {
	if !hotPathPackages[p.Path] && !p.hotpathMarked {
		return
	}
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			a.walk(p, fd.Body, 0)
		}
	}
}

// walk visits n tracking loop nesting depth.
func (a *hotPath) walk(p *Pass, n ast.Node, loopDepth int) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			if n.Init != nil {
				a.walk(p, n.Init, loopDepth)
			}
			if n.Cond != nil {
				a.walk(p, n.Cond, loopDepth)
			}
			a.walk(p, n.Body, loopDepth+1)
			return false
		case *ast.RangeStmt:
			a.walk(p, n.X, loopDepth)
			a.walk(p, n.Body, loopDepth+1)
			return false
		case *ast.CallExpr:
			a.checkCall(p, n, loopDepth)
		case *ast.CompositeLit:
			if loopDepth > 0 && a.isMetricID(p, n) {
				p.Reportf(n.Pos(), "metricstore.MetricID built inside a loop on the per-tick path — intern the identity once at build time with Store.Handle")
				a.flagKeyBuilding(p, n.Elts)
			}
		}
		return true
	})
}

func (a *hotPath) checkCall(p *Pass, call *ast.CallExpr, loopDepth int) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	name := sel.Sel.Name
	if !storeWrappers[name] && !storeResolvers[name] {
		return
	}
	if !a.isStoreMethod(p, sel) {
		return
	}
	switch {
	case storeWrappers[name]:
		p.Reportf(call.Pos(), "map-keyed Store.%s on the per-tick path rebuilds the metric key every call — resolve a Handle at build time and use Handle.Append/Stat/Window instead", name)
	case loopDepth > 0:
		p.Reportf(call.Pos(), "Store.%s inside a loop on the per-tick path — handles and rows are build-time references; resolve once outside the loop and reuse", name)
		a.flagKeyBuilding(p, call.Args)
	}
}

// flagKeyBuilding reports fmt.Sprintf calls and string concatenation used
// to assemble the metric identity being built per iteration — the classic
// per-tick key-construction allocation the handle tier exists to remove.
func (a *hotPath) flagKeyBuilding(p *Pass, exprs []ast.Expr) {
	for _, e := range exprs {
		ast.Inspect(e, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Sprintf" {
					if id, ok := sel.X.(*ast.Ident); ok {
						if pn, ok := p.Info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
							p.Reportf(n.Pos(), "fmt.Sprintf builds part of a metric identity inside a loop on the per-tick path — precompute the key outside the loop")
						}
					}
				}
			case *ast.BinaryExpr:
				// a + b on strings per iteration allocates just like Sprintf.
				if n.Op.String() == "+" {
					if t, ok := p.Info.Types[n].Type.(*types.Basic); ok && t.Kind() == types.String {
						p.Reportf(n.Pos(), "string concatenation builds part of a metric identity inside a loop on the per-tick path — precompute the key outside the loop")
						return false
					}
				}
			}
			return true
		})
	}
}

// isStoreMethod reports whether sel resolves to a method with receiver
// metricstore.Store (the handle type's methods share names like Latest;
// only the Store-keyed tier is banned).
func (a *hotPath) isStoreMethod(p *Pass, sel *ast.SelectorExpr) bool {
	s, ok := p.Info.Selections[sel]
	if !ok {
		return false
	}
	recv := s.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Store" && obj.Pkg() != nil && obj.Pkg().Path() == metricstorePath
}

// isMetricID reports whether lit constructs metricstore.MetricID.
func (a *hotPath) isMetricID(p *Pass, lit *ast.CompositeLit) bool {
	named, ok := p.Info.Types[lit].Type.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "MetricID" && obj.Pkg() != nil && obj.Pkg().Path() == metricstorePath
}
