package weave

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// The masking phase does not have to pay for a full checkpoint on every
// wrapped method: Effective Java's Item 76 ("strive for failure
// atomicity") lists cheaper remedies that suffice for common shapes, and
// the Analyzer has enough syntactic information to pick the cheapest
// sufficient one per method. The ladder, cheapest first:
//
//	none        the method never mutates its receiver, or cannot be
//	            interrupted mid-mutation — already failure atomic.
//	reorder     the method's only pre-validation mutations are leading
//	            counter bumps (l.Version++, l.Count--); moving them after
//	            the last throw site makes every throw site precede the
//	            first mutation. Zero runtime cost.
//	tempswap    every mutation is a direct write to a receiver field; a
//	            save-fields prologue plus a restore-on-panic defer makes
//	            the method atomic without copying reachable state.
//	checkpoint  anything else (interior-node writes, mutating callees):
//	            full checkpoint/rollback via failatomic.Guard.
//
// The analysis is conservative in the safe direction: whenever a cheaper
// rung cannot be proven sufficient, the method falls through to the next
// one, ending at checkpoint, which is always sufficient.
const (
	StrategyNone       = "none"
	StrategyReorder    = "reorder"
	StrategyTempSwap   = "tempswap"
	StrategyCheckpoint = "checkpoint"
)

// methodStrategy is the analysis detail behind one method's recommendation,
// retained so the rewriter can apply the transformation it implies.
type methodStrategy struct {
	*function
	strategy string
	reason   string
	// bumpCount is the length of the leading receiver-field bump prefix.
	bumpCount int
	// lastRisky indexes the last statement (in body.List) that can raise
	// an exception; -1 when none can.
	lastRisky int
	// fields lists the directly written receiver fields, sorted — the
	// tempswap save/restore set.
	fields []string
	// allDirect reports whether every mutation is a direct receiver-field
	// write (the tempswap applicability condition).
	allDirect bool
}

// analyzeStrategy computes the Item-76 strategy recommendation for every
// instrumentable method of a package.
func analyzeStrategy(p *pkg) map[string]*methodStrategy {
	e := &strategyEnv{
		pkg:        p,
		risky:      make(map[string]bool, len(p.funcs)),
		mutates:    make(map[string]bool, len(p.funcs)),
		fieldsRead: make(map[string]map[string]bool, len(p.funcs)),
	}
	// risky: the function can raise an exception once entered — it is
	// instrumented (every instrumented entry is an injection site), throws
	// directly, or calls something risky. mutates: it can mutate non-local
	// state. fieldsRead: the receiver fields it reads (bare-name matched
	// across classes — an over-approximation that only disqualifies the
	// reorder rung). All three also hold through same-package callees.
	for key, f := range p.funcs {
		e.risky[key] = f.name != "" || hasRiskyCallSyntax(f.body)
		e.mutates[key] = bodyMutatesNonLocal(f.body, f.recv)
		e.fieldsRead[key] = receiverFieldReads(f.body, f.recv)
	}
	p.fixpoint(func(key, callee string) bool {
		changed := false
		if e.risky[callee] && !e.risky[key] {
			e.risky[key] = true
			changed = true
		}
		if e.mutates[callee] && !e.mutates[key] {
			e.mutates[key] = true
			changed = true
		}
		for f := range e.fieldsRead[callee] {
			if !e.fieldsRead[key][f] {
				e.fieldsRead[key][f] = true
				changed = true
			}
		}
		return changed
	})

	methods := make(map[string]*methodStrategy)
	for key, f := range p.funcs {
		if f.name != "" {
			methods[key] = e.recommend(f)
		}
	}
	return methods
}

// strategyEnv bundles the package-wide facts the per-method recommender
// consults.
type strategyEnv struct {
	*pkg
	risky      map[string]bool
	mutates    map[string]bool
	fieldsRead map[string]map[string]bool
}

// recommend picks the cheapest sufficient rung for one method.
func (e *strategyEnv) recommend(f *function) *methodStrategy {
	ms := &methodStrategy{function: f, lastRisky: -1}
	if f.decl.Recv == nil {
		ms.strategy, ms.reason = StrategyNone, "constructor builds fresh state"
		return ms
	}
	if f.recv == "" {
		ms.strategy, ms.reason = StrategyNone, "no pointer receiver to mutate"
		return ms
	}

	// Per-statement classification.
	type stmtFacts struct {
		mut        mutation
		risky      bool
		reads      map[string]bool
		hasControl bool // return/branch/defer — disqualifies the reorder region
	}
	facts := make([]stmtFacts, len(f.body.List))
	anyMutation := false
	allDirect := true
	directFields := make(map[string]bool)
	for i, st := range f.body.List {
		sf := stmtFacts{
			mut:        e.classifyMutation(st, f.recv),
			risky:      e.stmtRisky(st),
			reads:      e.stmtFieldReads(st, f.recv),
			hasControl: containsControlTransfer(st),
		}
		facts[i] = sf
		if sf.mut.any() {
			anyMutation = true
		}
		if sf.risky {
			ms.lastRisky = i
		}
		if sf.mut.indirect {
			allDirect = false
		}
		for fd := range sf.mut.direct {
			directFields[fd] = true
		}
	}
	ms.allDirect = allDirect && anyMutation
	ms.fields = sortedKeys(directFields)

	if !anyMutation {
		ms.strategy, ms.reason = StrategyNone, "does not mutate the receiver"
		return ms
	}
	if ms.lastRisky < 0 {
		ms.strategy, ms.reason = StrategyNone, "no throw sites in the body"
		return ms
	}
	firstMut := -1
	for i := range facts {
		if facts[i].mut.any() {
			firstMut = i
			break
		}
	}
	if ms.lastRisky < firstMut {
		ms.strategy, ms.reason = StrategyNone, "every throw site already precedes the first mutation"
		return ms
	}

	// reorder: a leading prefix of receiver-field bumps whose move past the
	// last throw site is provably behavior-preserving.
	bumped := make(map[string]bool)
	for _, st := range f.body.List {
		field, ok := bumpField(st, f.recv)
		if !ok {
			break
		}
		bumped[field] = true
		ms.bumpCount++
	}
	// Moving the bumps past the region (the statements between the bump
	// prefix and the last throw site, inclusive) is safe only if nothing in
	// the region mutates the receiver, transfers control, or observes a
	// bumped field.
	regionOK := ms.bumpCount > 0 && ms.lastRisky >= ms.bumpCount
	for i := ms.bumpCount; regionOK && i <= ms.lastRisky; i++ {
		if facts[i].mut.any() || facts[i].hasControl {
			regionOK = false
			break
		}
		for fd := range facts[i].reads {
			if bumped[fd] {
				regionOK = false
				break
			}
		}
	}
	if regionOK {
		ms.strategy = StrategyReorder
		ms.reason = fmt.Sprintf("leading bumps of %s can move after the last throw site",
			strings.Join(sortedKeys(bumped), ", "))
		return ms
	}

	if ms.allDirect {
		ms.strategy = StrategyTempSwap
		ms.reason = fmt.Sprintf("all mutations are direct writes to %s",
			strings.Join(ms.fields, ", "))
		return ms
	}

	ms.strategy = StrategyCheckpoint
	ms.reason = "mutations reach interior nodes or callees; full checkpoint/rollback"
	return ms
}

// mutation classifies how one statement writes receiver state.
type mutation struct {
	// direct holds receiver fields written through recv.Field.
	direct map[string]bool
	// indirect marks interior writes (cur.Next = …), receiver rebinding,
	// calls to mutating same-package functions, or unresolved calls that
	// could mutate the receiver.
	indirect bool
}

func (m mutation) any() bool { return m.indirect || len(m.direct) > 0 }

// classifyMutation inspects every write and call in one statement.
func (e *strategyEnv) classifyMutation(stmt ast.Stmt, recv string) mutation {
	m := mutation{direct: make(map[string]bool)}
	classifyLHS := func(lhs ast.Expr) {
		switch t := lhs.(type) {
		case *ast.Ident:
			if t.Name == recv {
				m.indirect = true // receiver rebinding
			}
		case *ast.SelectorExpr:
			if id, ok := t.X.(*ast.Ident); ok && id.Name == recv {
				m.direct[t.Sel.Name] = true
			} else {
				m.indirect = true
			}
		default:
			m.indirect = true
		}
	}
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range node.Lhs {
				classifyLHS(lhs)
			}
		case *ast.IncDecStmt:
			classifyLHS(node.X)
		case *ast.RangeStmt:
			if node.Key != nil {
				classifyLHS(node.Key)
			}
			if node.Value != nil {
				classifyLHS(node.Value)
			}
		case *ast.CallExpr:
			if e.callMayMutate(node, recv) {
				m.indirect = true
			}
		}
		return true
	})
	return m
}

// callMayMutate reports whether a call could mutate the receiver: a
// delete, clear or copy into receiver state, a resolved same-package
// callee that mutates, an unresolved method call on the receiver, or the
// receiver passed (or aliased) as an argument to an unresolved function.
func (e *strategyEnv) callMayMutate(call *ast.CallExpr, recv string) bool {
	if builtinWritesReceiver(call, recv) {
		return true
	}
	targets := e.resolve(call)
	for _, key := range targets {
		if e.mutates[key] {
			return true
		}
	}
	if fun, ok := call.Fun.(*ast.SelectorExpr); ok && len(targets) == 0 {
		// Unresolved method call: dangerous only when invoked on the
		// receiver itself.
		if id, ok := fun.X.(*ast.Ident); ok && id.Name == recv {
			return true
		}
	}
	// Calls through function values or unresolved functions can reach the
	// receiver only when it is handed out as an argument.
	for _, arg := range call.Args {
		if exprIsReceiverAlias(arg, recv) {
			return true
		}
	}
	return false
}

// exprIsReceiverAlias reports whether an argument hands out the receiver
// pointer itself (or an address rooted in it).
func exprIsReceiverAlias(expr ast.Expr, recv string) bool {
	switch t := expr.(type) {
	case *ast.Ident:
		return t.Name == recv
	case *ast.UnaryExpr:
		if t.Op == token.AND {
			return exprRootedInReceiver(t.X, recv)
		}
	}
	return false
}

// builtinWritesReceiver reports a delete, clear or copy call whose first
// argument — the map or slice the builtin writes — is rooted in the
// receiver.
func builtinWritesReceiver(call *ast.CallExpr, recv string) bool {
	fun, ok := call.Fun.(*ast.Ident)
	if !ok || len(call.Args) == 0 {
		return false
	}
	switch fun.Name {
	case "delete", "clear", "copy":
		return exprRootedInReceiver(call.Args[0], recv)
	}
	return false
}

func exprRootedInReceiver(expr ast.Expr, recv string) bool {
	for {
		switch t := expr.(type) {
		case *ast.Ident:
			return t.Name == recv
		case *ast.SelectorExpr:
			expr = t.X
		case *ast.IndexExpr:
			expr = t.X
		case *ast.SliceExpr:
			expr = t.X
		case *ast.ParenExpr:
			expr = t.X
		default:
			return false
		}
	}
}

// stmtRisky reports whether a statement can raise an exception: a direct
// Throw or panic, or a call into a risky same-package function (every
// instrumented entry is an injection site).
func (e *strategyEnv) stmtRisky(stmt ast.Stmt) bool {
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		if isThrowOrPanic(call) {
			found = true
			return false
		}
		for _, key := range e.resolve(call) {
			if e.risky[key] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// stmtFieldReads collects the receiver fields a statement observes,
// including transitively through same-package callees.
func (e *strategyEnv) stmtFieldReads(stmt ast.Stmt, recv string) map[string]bool {
	reads := receiverFieldReads(&ast.BlockStmt{List: []ast.Stmt{stmt}}, recv)
	ast.Inspect(stmt, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			for _, key := range e.resolve(call) {
				for f := range e.fieldsRead[key] {
					reads[f] = true
				}
			}
		}
		return true
	})
	return reads
}

// receiverFieldReads collects recv.Field selector uses that are not call
// targets (method calls are accounted for via the callee's own read set).
func receiverFieldReads(body *ast.BlockStmt, recv string) map[string]bool {
	reads := make(map[string]bool)
	if recv == "" {
		return reads
	}
	callFuns := make(map[ast.Expr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			callFuns[call.Fun] = true
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || callFuns[sel] {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == recv {
			reads[sel.Sel.Name] = true
		}
		return true
	})
	return reads
}

// bodyMutatesNonLocal reports whether a body writes anything that is not a
// plain local variable — the conservative "can this function mutate shared
// state" bit used for callee propagation.
func bodyMutatesNonLocal(body *ast.BlockStmt, recv string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		check := func(lhs ast.Expr) {
			switch t := lhs.(type) {
			case *ast.Ident:
				if recv != "" && t.Name == recv {
					found = true
				}
			default:
				found = true
			}
		}
		switch node := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range node.Lhs {
				check(lhs)
			}
		case *ast.IncDecStmt:
			check(node.X)
		case *ast.CallExpr:
			if builtinWritesReceiver(node, recv) {
				found = true
			}
		}
		return true
	})
	return found
}

// hasRiskyCallSyntax reports direct Throw/panic calls anywhere in a body.
func hasRiskyCallSyntax(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isThrowOrPanic(call) {
			found = true
		}
		return !found
	})
	return found
}

// isThrowOrPanic reports a direct x.Throw(...) or panic(...) call.
func isThrowOrPanic(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name == "Throw"
	case *ast.Ident:
		return fun.Name == "panic"
	}
	return false
}

// containsControlTransfer reports return/branch/defer statements outside
// nested function literals — any of them makes the reorder region unsafe.
func containsControlTransfer(stmt ast.Stmt) bool {
	found := false
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if found {
			return false
		}
		switch n.(type) {
		case *ast.FuncLit:
			return false // returns inside a literal do not exit the method
		case *ast.ReturnStmt, *ast.BranchStmt, *ast.DeferStmt:
			found = true
			return false
		}
		return true
	}
	ast.Inspect(stmt, walk)
	return found
}

// bumpField recognizes a leading counter-bump statement: recv.Field++/--
// or recv.Field +=/-= <literal>. Bumps read nothing but their own field,
// so a maximal prefix of them can move as a unit.
func bumpField(stmt ast.Stmt, recv string) (string, bool) {
	fieldOf := func(expr ast.Expr) (string, bool) {
		sel, ok := expr.(*ast.SelectorExpr)
		if !ok {
			return "", false
		}
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == recv {
			return sel.Sel.Name, true
		}
		return "", false
	}
	switch node := stmt.(type) {
	case *ast.IncDecStmt:
		return fieldOf(node.X)
	case *ast.AssignStmt:
		if len(node.Lhs) != 1 || len(node.Rhs) != 1 {
			return "", false
		}
		if node.Tok != token.ADD_ASSIGN && node.Tok != token.SUB_ASSIGN {
			return "", false
		}
		if _, ok := node.Rhs[0].(*ast.BasicLit); !ok {
			return "", false
		}
		return fieldOf(node.Lhs[0])
	}
	return "", false
}

// pointerReceiverName returns the named pointer-receiver identifier, or "".
func pointerReceiverName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) != 1 {
		return ""
	}
	field := fn.Recv.List[0]
	if _, isPtr := field.Type.(*ast.StarExpr); !isPtr {
		return ""
	}
	if len(field.Names) != 1 || field.Names[0].Name == "_" {
		return ""
	}
	return field.Names[0].Name
}
