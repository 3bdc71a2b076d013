package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// lockOrder derives the control plane's acquired-while-held lock graph
// from Lock/RLock/defer Unlock patterns and fails on cycles or on
// violations of the documented order. The repo's real discipline, spelled
// out in struct comments until now:
//
//   - metricstore: the store lock is only ever taken to create or look up
//     entries, never while a metric's frame lock is held (view callbacks
//     such as Each and Handle.ViewWindow run under the frame lock and
//     must not call back into the store).
//   - registry: pacerMu is acquired before the flow lock when both are
//     needed — pacer lifecycle calls wait on scheduler tickets whose tick
//     functions take the flow lock through Advance, so the reverse
//     nesting is a deadlock.
//   - sched: shard and job locks are leaves with respect to the registry;
//     scheduler callbacks (pacer ticks, onStop hooks) take registry
//     locks, so a registry lock acquired under a shard or job lock closes
//     a wait cycle.
//
// The analysis is a per-function abstract interpretation of the held-lock
// set (branch-merging by intersection, loop bodies entered once), with
// acquisitions propagated through module-internal static calls. Function
// values, interface dispatch and goroutines are deliberately not
// followed: callbacks run on other goroutines with an empty held set, and
// tracing them would manufacture edges that cannot deadlock. The result
// is conservative in the useful direction — an edge it reports comes from
// a real synchronous acquire-under-hold chain in the source.
type lockOrder struct {
	summaries map[string]*loSummary
	anon      []*loSummary
}

func newLockOrder() *lockOrder {
	return &lockOrder{summaries: map[string]*loSummary{}}
}

func (*lockOrder) Name() string { return "lockorder" }

func (*lockOrder) Doc() string {
	return "derives the acquired-while-held lock graph (propagated through static calls) and fails on cycles or violations of the documented order"
}

// lockKey canonically identifies one lock: "pkgpath.Type.field" for
// struct-field mutexes, "pkgpath.name" for package-level ones,
// "pkgpath.name#pos" for function-locals.
type lockKey string

// disp renders a key for findings: repro/internal/registry.Flow.mu →
// registry.Flow.mu.
func (k lockKey) disp() string {
	s := string(k)
	s = strings.TrimPrefix(s, "repro/internal/")
	s = strings.TrimPrefix(s, "repro/")
	if i := strings.IndexByte(s, '#'); i >= 0 {
		s = s[:i] + " (local)"
	}
	return s
}

type loCall struct {
	callee string
	held   []lockKey
	pos    token.Pos
}

type loEdge struct {
	from, to lockKey
	pos      token.Pos
	via      string // "" for a direct acquire, callee name for a propagated one
}

// loSummary is what one function scope contributes to the whole-program
// graph.
type loSummary struct {
	acquires map[lockKey]token.Pos
	calls    []loCall
	edges    []loEdge
}

// loState is the abstract interpreter's per-path state.
type loState struct {
	held       []lockKey
	terminated bool
}

func (st *loState) clone() *loState {
	return &loState{held: append([]lockKey(nil), st.held...), terminated: st.terminated}
}

func (st *loState) holds(k lockKey) bool {
	for _, h := range st.held {
		if h == k {
			return true
		}
	}
	return false
}

func (st *loState) acquire(k lockKey) {
	if !st.holds(k) {
		st.held = append(st.held, k)
	}
}

func (st *loState) release(k lockKey) {
	for i, h := range st.held {
		if h == k {
			st.held = append(st.held[:i], st.held[i+1:]...)
			return
		}
	}
}

func intersectHeld(a, b []lockKey) []lockKey {
	var out []lockKey
	for _, k := range a {
		for _, j := range b {
			if k == j {
				out = append(out, k)
				break
			}
		}
	}
	return out
}

func (a *lockOrder) Run(p *Pass) {
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := ""
			if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
				name = fn.FullName()
			}
			sum := &loSummary{acquires: map[lockKey]token.Pos{}}
			sc := &loScope{a: a, p: p, sum: sum}
			sc.stmt(fd.Body, &loState{})
			if name != "" {
				a.summaries[name] = sum
			} else {
				a.anon = append(a.anon, sum)
			}
		}
	}
}

// loScope interprets one function (or function literal) body.
type loScope struct {
	a   *lockOrder
	p   *Pass
	sum *loSummary
}

// subScope analyzes a function literal's body as its own scope, seeded
// with the given held set, contributing to the whole-program pool as an
// anonymous summary.
func (s *loScope) subScope(body *ast.BlockStmt, held []lockKey) {
	sum := &loSummary{acquires: map[lockKey]token.Pos{}}
	sc := &loScope{a: s.a, p: s.p, sum: sum}
	sc.stmt(body, &loState{held: append([]lockKey(nil), held...)})
	s.a.anon = append(s.a.anon, sum)
}

func (s *loScope) stmt(n ast.Stmt, st *loState) {
	if n == nil || st.terminated {
		return
	}
	switch n := n.(type) {
	case *ast.BlockStmt:
		for _, inner := range n.List {
			if st.terminated {
				return
			}
			s.stmt(inner, st)
		}
	case *ast.ExprStmt:
		s.expr(n.X, st)
	case *ast.AssignStmt:
		for _, e := range n.Rhs {
			s.expr(e, st)
		}
		for _, e := range n.Lhs {
			s.expr(e, st)
		}
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						s.expr(v, st)
					}
				}
			}
		}
	case *ast.IfStmt:
		s.stmt(n.Init, st)
		s.expr(n.Cond, st)
		thenSt := st.clone()
		s.stmt(n.Body, thenSt)
		elseSt := st.clone()
		if n.Else != nil {
			s.stmt(n.Else, elseSt)
		}
		switch {
		case thenSt.terminated && elseSt.terminated:
			st.terminated = true
		case thenSt.terminated:
			st.held = elseSt.held
		case elseSt.terminated:
			st.held = thenSt.held
		default:
			st.held = intersectHeld(thenSt.held, elseSt.held)
		}
	case *ast.ForStmt:
		s.stmt(n.Init, st)
		s.expr(n.Cond, st)
		body := st.clone()
		s.stmt(n.Body, body)
		s.stmt(n.Post, body)
		// Loop bodies are assumed lock-balanced; the held set at the
		// statement after the loop is the one at entry.
	case *ast.RangeStmt:
		s.expr(n.X, st)
		body := st.clone()
		s.stmt(n.Body, body)
	case *ast.SwitchStmt:
		s.stmt(n.Init, st)
		s.expr(n.Tag, st)
		s.caseBodies(bodyList(n.Body), st, hasDefaultClause(n.Body))
	case *ast.TypeSwitchStmt:
		s.stmt(n.Init, st)
		s.stmt(n.Assign, st)
		s.caseBodies(bodyList(n.Body), st, hasDefaultClause(n.Body))
	case *ast.SelectStmt:
		// A select always executes exactly one case.
		s.caseBodies(bodyList(n.Body), st, true)
	case *ast.ReturnStmt:
		for _, e := range n.Results {
			s.expr(e, st)
		}
		st.terminated = true
	case *ast.BranchStmt:
		// break/continue/goto leave this straight-line path.
		st.terminated = true
	case *ast.DeferStmt:
		s.deferCall(n.Call, st)
	case *ast.GoStmt:
		// The spawned goroutine starts with no locks held; its work is
		// asynchronous, so it contributes no synchronous edges here.
		if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
			s.subScope(lit.Body, nil)
		}
		for _, arg := range n.Call.Args {
			s.expr(arg, st)
		}
	case *ast.LabeledStmt:
		s.stmt(n.Stmt, st)
	case *ast.IncDecStmt:
		s.expr(n.X, st)
	case *ast.SendStmt:
		s.expr(n.Chan, st)
		s.expr(n.Value, st)
	}
}

func bodyList(b *ast.BlockStmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	for _, c := range b.List {
		switch c := c.(type) {
		case *ast.CaseClause:
			out = append(out, c.Body)
		case *ast.CommClause:
			body := c.Body
			if c.Comm != nil {
				body = append([]ast.Stmt{c.Comm}, body...)
			}
			out = append(out, body)
		}
	}
	return out
}

func hasDefaultClause(b *ast.BlockStmt) bool {
	for _, c := range b.List {
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

// caseBodies interprets each case with its own copy of the state and
// merges: the post-state is the intersection of every non-terminated
// case (plus the fall-past-all-cases path when no case is guaranteed to
// run).
func (s *loScope) caseBodies(bodies [][]ast.Stmt, st *loState, exhaustive bool) {
	var survivors [][]lockKey
	if !exhaustive {
		survivors = append(survivors, append([]lockKey(nil), st.held...))
	}
	for _, body := range bodies {
		cs := st.clone()
		for _, inner := range body {
			if cs.terminated {
				break
			}
			s.stmt(inner, cs)
		}
		if !cs.terminated {
			survivors = append(survivors, cs.held)
		}
	}
	if len(survivors) == 0 {
		if len(bodies) > 0 {
			st.terminated = true
		}
		return
	}
	held := survivors[0]
	for _, sv := range survivors[1:] {
		held = intersectHeld(held, sv)
	}
	st.held = held
}

// deferCall handles `defer x()`: a deferred Unlock keeps the lock held
// for the rest of the scope (which is exactly what the edge derivation
// wants); a deferred module call or closure is approximated as running
// with the currently-held set.
func (s *loScope) deferCall(call *ast.CallExpr, st *loState) {
	for _, arg := range call.Args {
		s.expr(arg, st)
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		s.subScope(lit.Body, st.held)
		return
	}
	if key, op, ok := s.mutexOp(call); ok {
		_ = key
		_ = op
		// Deferred Unlock: the lock stays held to scope end. Deferred
		// Lock: nonsensical, ignored.
		return
	}
	if callee := s.staticModuleCallee(call); callee != "" {
		s.sum.calls = append(s.sum.calls, loCall{callee: callee, held: append([]lockKey(nil), st.held...), pos: call.Pos()})
	}
}

func (s *loScope) expr(e ast.Expr, st *loState) {
	if e == nil {
		return
	}
	switch n := e.(type) {
	case *ast.CallExpr:
		for _, arg := range n.Args {
			s.expr(arg, st)
		}
		if lit, ok := n.Fun.(*ast.FuncLit); ok {
			// Immediately-invoked literal: runs inline on this path.
			s.stmt(lit.Body, st)
			return
		}
		if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
			s.expr(sel.X, st)
		}
		if key, op, ok := s.mutexOp(n); ok {
			switch op {
			case "Lock", "RLock", "TryLock", "TryRLock":
				for _, h := range st.held {
					if h != key {
						s.sum.edges = append(s.sum.edges, loEdge{from: h, to: key, pos: n.Pos()})
					}
				}
				st.acquire(key)
				if _, seen := s.sum.acquires[key]; !seen {
					s.sum.acquires[key] = n.Pos()
				}
			case "Unlock", "RUnlock":
				st.release(key)
			}
			return
		}
		if callee := s.staticModuleCallee(n); callee != "" {
			s.sum.calls = append(s.sum.calls, loCall{callee: callee, held: append([]lockKey(nil), st.held...), pos: n.Pos()})
		}
	case *ast.FuncLit:
		// A literal not invoked here runs later, on some goroutine, with
		// nothing held.
		s.subScope(n.Body, nil)
	case *ast.ParenExpr:
		s.expr(n.X, st)
	case *ast.SelectorExpr:
		s.expr(n.X, st)
	case *ast.StarExpr:
		s.expr(n.X, st)
	case *ast.UnaryExpr:
		s.expr(n.X, st)
	case *ast.BinaryExpr:
		s.expr(n.X, st)
		s.expr(n.Y, st)
	case *ast.IndexExpr:
		s.expr(n.X, st)
		s.expr(n.Index, st)
	case *ast.SliceExpr:
		s.expr(n.X, st)
		s.expr(n.Low, st)
		s.expr(n.High, st)
		s.expr(n.Max, st)
	case *ast.TypeAssertExpr:
		s.expr(n.X, st)
	case *ast.CompositeLit:
		for _, elt := range n.Elts {
			s.expr(elt, st)
		}
	case *ast.KeyValueExpr:
		s.expr(n.Value, st)
	}
}

// mutexOp resolves call to a sync.Mutex / sync.RWMutex method and the
// canonical key of the lock it operates on.
func (s *loScope) mutexOp(call *ast.CallExpr) (lockKey, string, bool) {
	fun, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	op := fun.Sel.Name
	switch op {
	case "Lock", "RLock", "TryLock", "TryRLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	selInfo, ok := s.p.Info.Selections[fun]
	if !ok {
		return "", "", false
	}
	fn, ok := selInfo.Obj().(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	return s.lockKeyOf(fun, selInfo), op, true
}

// lockKeyOf names the lock a mutex-method selection operates on.
func (s *loScope) lockKeyOf(fun *ast.SelectorExpr, selInfo *types.Selection) lockKey {
	if idx := selInfo.Index(); len(idx) > 1 {
		// Promoted through an embedded field: t.Lock() where the receiver
		// type embeds the mutex. Name it after the receiver type and the
		// embedded field.
		recv := deref(selInfo.Recv())
		if named, ok := recv.(*types.Named); ok {
			if stru, ok := named.Underlying().(*types.Struct); ok && idx[0] < stru.NumFields() {
				return lockKey(typeKeyOf(named) + "." + stru.Field(idx[0]).Name())
			}
		}
	}
	// Direct method on a mutex-typed expression: x.mu.Lock() or mu.Lock().
	switch recv := fun.X.(type) {
	case *ast.SelectorExpr:
		if named, ok := deref(typeOf(s.p, recv.X)).(*types.Named); ok {
			return lockKey(typeKeyOf(named) + "." + recv.Sel.Name)
		}
	case *ast.Ident:
		if v, ok := s.p.Info.Uses[recv].(*types.Var); ok {
			if v.Parent() == s.p.Types.Scope() {
				return lockKey(s.p.Path + "." + v.Name())
			}
			return lockKey(fmt.Sprintf("%s.%s#%d", s.p.Path, v.Name(), v.Pos()))
		}
	}
	return lockKey(s.p.Path + "." + types.ExprString(fun.X))
}

func typeOf(p *Pass, e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func deref(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	if ptr, ok := t.(*types.Pointer); ok {
		return ptr.Elem()
	}
	return t
}

func typeKeyOf(named *types.Named) string {
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// staticModuleCallee resolves a call to a module function's summary key,
// or "" when the callee is not statically known module code.
func (s *loScope) staticModuleCallee(call *ast.CallExpr) string {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		obj = s.p.Info.Uses[fun.Sel]
	case *ast.Ident:
		obj = s.p.Info.Uses[fun]
	default:
		return ""
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || !strings.HasPrefix(fn.Pkg().Path(), "repro") {
		return ""
	}
	return fn.FullName()
}

// Finish assembles the whole-program edge graph — direct edges plus
// held-sets propagated through static calls — and reports forbidden
// orders and cycles.
func (a *lockOrder) Finish(fset *token.FileSet, report func(pos token.Pos, format string, args ...any)) {
	// Transitive lock acquisitions per function, to a fixed point.
	memo := map[string]map[lockKey]bool{}
	var transAcq func(name string, seen map[string]bool) map[lockKey]bool
	transAcq = func(name string, seen map[string]bool) map[lockKey]bool {
		if m, ok := memo[name]; ok {
			return m
		}
		if seen[name] {
			return nil
		}
		seen[name] = true
		sum := a.summaries[name]
		if sum == nil {
			return nil
		}
		out := map[lockKey]bool{}
		for k := range sum.acquires {
			out[k] = true
		}
		for _, c := range sum.calls {
			for k := range transAcq(c.callee, seen) {
				out[k] = true
			}
		}
		memo[name] = out
		return out
	}

	type edgeID struct{ from, to lockKey }
	edges := map[edgeID]loEdge{}
	addEdge := func(e loEdge) {
		id := edgeID{e.from, e.to}
		if _, ok := edges[id]; !ok {
			edges[id] = e
		}
	}
	all := make([]*loSummary, 0, len(a.summaries)+len(a.anon))
	names := make([]string, 0, len(a.summaries))
	for n := range a.summaries {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		all = append(all, a.summaries[n])
	}
	all = append(all, a.anon...)
	for _, sum := range all {
		for _, e := range sum.edges {
			addEdge(e)
		}
		for _, c := range sum.calls {
			if len(c.held) == 0 {
				continue
			}
			for to := range transAcq(c.callee, map[string]bool{}) {
				for _, from := range c.held {
					if from != to {
						addEdge(loEdge{from: from, to: to, pos: c.pos, via: c.callee})
					}
				}
			}
		}
	}

	// Documented-order rules.
	type rule struct {
		from, to lockKey
		why      string
	}
	var rules []rule
	rules = append(rules,
		rule{"repro/internal/metricstore.frame.mu", "repro/internal/metricstore.Store.mu",
			"the metric store's order is store-lock before frame-lock; code under a frame lock (including Each and ViewWindow callbacks) must never call back into the store"},
		rule{"repro/internal/registry.Flow.mu", "repro/internal/registry.Flow.pacerMu",
			"the registry's order is pacerMu before the flow lock; pacer lifecycle calls wait on scheduler tickets whose tick functions take the flow lock through Advance"},
	)
	for _, from := range []lockKey{"repro/internal/sched.shard.mu", "repro/internal/sched.job.mu"} {
		for _, to := range []lockKey{"repro/internal/registry.Flow.mu", "repro/internal/registry.Flow.pacerMu", "repro/internal/registry.Registry.mu"} {
			rules = append(rules, rule{from, to,
				"scheduler shard/job locks are leaves with respect to the registry; its callbacks take registry locks, so the reverse nesting closes a deadlock cycle"})
		}
	}
	ids := make([]edgeID, 0, len(edges))
	for id := range edges {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].from != ids[j].from {
			return ids[i].from < ids[j].from
		}
		return ids[i].to < ids[j].to
	})
	for _, id := range ids {
		for _, r := range rules {
			if id.from == r.from && id.to == r.to {
				e := edges[id]
				via := ""
				if e.via != "" {
					via = fmt.Sprintf(" (via call to %s)", strings.TrimPrefix(e.via, "repro/internal/"))
				}
				report(e.pos, "%s acquired while holding %s%s — %s", id.to.disp(), id.from.disp(), via, r.why)
			}
		}
	}

	// Cycle detection over the full graph.
	adj := map[lockKey][]lockKey{}
	for _, id := range ids {
		adj[id.from] = append(adj[id.from], id.to)
	}
	reported := map[string]bool{}
	var stack []lockKey
	onStack := map[lockKey]int{}
	done := map[lockKey]bool{}
	var dfs func(k lockKey)
	dfs = func(k lockKey) {
		onStack[k] = len(stack)
		stack = append(stack, k)
		for _, next := range adj[k] {
			if i, ok := onStack[next]; ok {
				cycle := append([]lockKey(nil), stack[i:]...)
				a.reportCycle(cycle, edges[edgeID{k, next}], reported, report)
				continue
			}
			if !done[next] {
				dfs(next)
			}
		}
		stack = stack[:len(stack)-1]
		delete(onStack, k)
		done[k] = true
	}
	roots := make([]lockKey, 0, len(adj))
	for k := range adj {
		roots = append(roots, k)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	for _, k := range roots {
		if !done[k] {
			dfs(k)
		}
	}
}

// reportCycle emits one finding per distinct cycle (normalised so
// rotations dedupe), positioned at the closing edge.
func (a *lockOrder) reportCycle(cycle []lockKey, closing loEdge, reported map[string]bool, report func(pos token.Pos, format string, args ...any)) {
	min := 0
	for i := range cycle {
		if cycle[i] < cycle[min] {
			min = i
		}
	}
	norm := make([]string, 0, len(cycle))
	for i := range cycle {
		norm = append(norm, string(cycle[(min+i)%len(cycle)]))
	}
	key := strings.Join(norm, "→")
	if reported[key] {
		return
	}
	reported[key] = true
	parts := make([]string, 0, len(cycle)+1)
	for _, k := range cycle {
		parts = append(parts, k.disp())
	}
	parts = append(parts, cycle[0].disp())
	report(closing.pos, "lock-order cycle: %s — two goroutines taking these locks in different orders deadlock", strings.Join(parts, " → "))
}
