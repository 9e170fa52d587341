package weave

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// The paper's §4.3 notes that its Analyzer "does not attempt to determine
// whether it is possible for a runtime exception to occur in a given
// method. We plan to address this issue in the future" — programmers had
// to assert exception-free methods by hand through a web interface. This
// file implements that future work as a conservative syntactic analysis:
// a method is *provably* exception-free when its body contains no
// construct that can panic and every same-package callee is provably
// exception-free. Anything the analysis cannot see (calls into other
// packages, indexing, division, assertions, conversions…) disqualifies
// the method, so a suggestion is always safe to feed into
// DetectOptions.ExceptionFree.

// riskyConstructs returns human-readable reasons a body could panic,
// ignoring same-package calls (those are resolved transitively by
// SuggestExceptionFree). It returns nil when no risky construct is found.
func riskyConstructs(body *ast.BlockStmt, samePackage func(callee string) bool) []string {
	reasons := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.IndexExpr:
			reasons["indexing can panic"] = true
		case *ast.SliceExpr:
			reasons["slicing can panic"] = true
		case *ast.TypeAssertExpr:
			// The two-value form is safe, but distinguishing it needs the
			// parent; stay conservative.
			reasons["type assertion can panic"] = true
		case *ast.StarExpr:
			reasons["pointer dereference can panic"] = true
		case *ast.BinaryExpr:
			if node.Op == token.QUO || node.Op == token.REM {
				reasons["division can panic"] = true
			}
		case *ast.UnaryExpr:
			if node.Op == token.ARROW {
				reasons["channel receive can block or panic"] = true
			}
		case *ast.SendStmt:
			reasons["channel send can panic"] = true
		case *ast.GoStmt:
			reasons["spawns a goroutine"] = true
		case *ast.SelectorExpr:
			// Field access through a pointer can nil-panic; allow only
			// selectors used as call targets resolved below.
			return true
		case *ast.CallExpr:
			switch fun := node.Fun.(type) {
			case *ast.Ident:
				switch fun.Name {
				case "panic":
					reasons["panics explicitly"] = true
				case "len", "cap", "append", "copy", "min", "max", "make", "new", "delete":
					// Safe builtins.
				default:
					if !samePackage(fun.Name) {
						reasons["calls unknown function "+fun.Name] = true
					}
				}
			case *ast.SelectorExpr:
				callee := fun.Sel.Name
				if !samePackage(callee) {
					reasons["calls unknown method "+callee] = true
				}
			default:
				reasons["calls through a function value"] = true
			}
		case *ast.IndexListExpr:
			reasons["generic instantiation"] = true
		}
		return true
	})
	if len(reasons) == 0 {
		return nil
	}
	out := make([]string, 0, len(reasons))
	for r := range reasons {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// ExceptionFreeReport is the inference outcome for the inventory.
type ExceptionFreeReport struct {
	// Safe lists the provably exception-free instrumentation names.
	Safe []string
	// Reasons explains, per unsafe method, why it was disqualified.
	Reasons map[string][]string
}

// SuggestExceptionFree computes the provably exception-free methods of a
// package directory: no risky construct in the body, no Throw, and every
// same-package callee provably exception-free (greatest fixpoint).
func SuggestExceptionFree(dir string) (*ExceptionFreeReport, error) {
	paths, err := packageFiles(dir)
	if err != nil {
		return nil, err
	}
	return suggestExceptionFree(paths)
}

func suggestExceptionFree(paths []string) (*ExceptionFreeReport, error) {
	funcs, err := parseFuncs(paths)
	if err != nil {
		return nil, err
	}

	// byBare indexes function keys by bare name: a call resolves to every
	// same-package function of that name (§4.3's conservative call graph).
	byBare := make(map[string][]string, len(funcs))
	for key := range funcs {
		byBare[bareName(key)] = append(byBare[bareName(key)], key)
	}
	samePackage := func(callee string) bool { return len(byBare[callee]) > 0 }

	// Start by assuming every method safe, then strip the syntactically
	// risky ones and propagate unsafety through the call graph (greatest
	// fixpoint: only methods whose whole same-package call closure is
	// clean survive).
	unsafe := make(map[string][]string)
	calleesOf := make(map[string][]string)
	for key, fn := range funcs {
		if reasons := riskyConstructs(fn.Body, samePackage); reasons != nil {
			unsafe[key] = reasons
		}
		if len(fn.Direct) > 0 {
			unsafe[key] = append(unsafe[key], "throws "+strings.Join(fn.Direct, ", "))
		}
		calleesOf[key] = calleeKeys(fn.Body, byBare)
	}
	for changed := true; changed; {
		changed = false
		for key := range funcs {
			if _, bad := unsafe[key]; bad {
				continue
			}
			for _, callee := range calleesOf[key] {
				if _, bad := unsafe[callee]; bad {
					unsafe[key] = []string{"calls unsafe " + callee}
					changed = true
					break
				}
			}
		}
	}

	report := &ExceptionFreeReport{Reasons: make(map[string][]string)}
	for key, fn := range funcs {
		if !fn.Instrumentable {
			continue
		}
		if reasons, bad := unsafe[key]; bad {
			report.Reasons[key] = reasons
			continue
		}
		report.Safe = append(report.Safe, key)
	}
	sort.Strings(report.Safe)
	return report, nil
}

// parsedFunc is the exception-free analysis's view of one function.
type parsedFunc struct {
	Body           *ast.BlockStmt
	Direct         []string
	Instrumentable bool
}

// parseFuncs loads every function of the package, keyed by
// instrumentation name for methods/ctors and "func:Name" for helpers.
func parseFuncs(paths []string) (map[string]*parsedFunc, error) {
	funcs := make(map[string]*parsedFunc)
	if err := eachFunc(paths, func(fn *ast.FuncDecl) {
		name, _ := instrumentationName(fn)
		key := name
		instrumentable := true
		if key == "" {
			key = "func:" + fn.Name.Name
			instrumentable = false
		}
		funcs[key] = &parsedFunc{
			Body:           stripPrologueView(fn),
			Direct:         directKinds(fn.Body),
			Instrumentable: instrumentable,
		}
	}); err != nil {
		return nil, err
	}
	return funcs, nil
}

// stripPrologueView returns the body without a leading Enter prologue (the
// prologue's defer call must not count as a risky construct).
func stripPrologueView(fn *ast.FuncDecl) *ast.BlockStmt {
	if !hasPrologue(fn) {
		return fn.Body
	}
	return &ast.BlockStmt{List: fn.Body.List[1:]}
}

// calleeKeys resolves a body's same-package calls to function keys
// through the bare-name index.
func calleeKeys(body *ast.BlockStmt, byBare map[string][]string) []string {
	set := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			for _, key := range byBare[fun.Sel.Name] {
				set[key] = true
			}
		case *ast.Ident:
			for _, key := range byBare[fun.Name] {
				set[key] = true
			}
		}
		return true
	})
	return sortedKeys(set)
}

func bareName(key string) string {
	key = strings.TrimPrefix(key, "func:")
	if i := strings.IndexByte(key, '.'); i >= 0 {
		return key[i+1:]
	}
	return key
}
