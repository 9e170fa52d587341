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
func (p *pkg) riskyConstructs(body *ast.BlockStmt) []string {
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
					if len(p.resolve(node)) == 0 {
						reasons["calls unknown function "+fun.Name] = true
					}
				}
			case *ast.SelectorExpr:
				if len(p.resolve(node)) == 0 {
					reasons["calls unknown method "+fun.Sel.Name] = true
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
	p, err := loadDir(dir)
	if err != nil {
		return nil, err
	}
	return p.exceptionFree(), nil
}

func (p *pkg) exceptionFree() *ExceptionFreeReport {
	// Start by assuming every method safe, then strip the syntactically
	// risky ones and propagate unsafety through the call graph (greatest
	// fixpoint: only methods whose whole same-package call closure is
	// clean survive).
	reasons := make(map[string][]string)
	unsafe := make(map[string]bool)
	for key, f := range p.funcs {
		reasons[key] = p.riskyConstructs(f.body)
		if direct := directKinds(f.body); len(direct) > 0 {
			reasons[key] = append(reasons[key], "throws "+strings.Join(direct, ", "))
		}
		unsafe[key] = reasons[key] != nil
	}
	p.fixpoint(func(key, callee string) bool {
		if unsafe[callee] && !unsafe[key] {
			unsafe[key] = true
			return true
		}
		return false
	})

	report := &ExceptionFreeReport{Reasons: make(map[string][]string)}
	for _, key := range p.keys {
		if p.funcs[key].name == "" {
			continue
		}
		if !unsafe[key] {
			report.Safe = append(report.Safe, key)
			continue
		}
		if reasons[key] == nil {
			// Unsafe only through the call graph: name the first unsafe
			// callee in sorted order, so the reason is deterministic.
			for _, callee := range p.callees[key] {
				if callee != key && unsafe[callee] {
					reasons[key] = []string{"calls unsafe " + callee}
					break
				}
			}
		}
		report.Reasons[key] = reasons[key]
	}
	return report
}
