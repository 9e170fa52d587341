// Package weave implements the paper's source-code transformation flavor
// (§5.1) on go/ast: the Analyzer parses a package, inventories its methods
// and constructors, and infers which exception kinds each can raise; the
// Code Weaver inserts the one-line instrumentation prologue
//
//	defer failatomic.Enter(recv, "Type.Method")()
//
// into every method, which is the Go equivalent of AspectC++ redirecting
// call sites to injection/atomicity wrappers — the prologue *is* the
// wrapper, so no call-site rewriting is needed. The string Enter is a thin
// wrapper over the method-handle prologue (failatomic.Method(name).Enter):
// it looks the name's handle up per call, where hand-written code resolves
// the handle once at package init. Both are recognized as a prologue
// (hasPrologue), so woven and hand-written packages check alike.
//
// The weaver edits source text at AST-derived positions (preserving all
// comments), is idempotent, can strip its own instrumentation, and can
// generate the method registry (Step 1's Analyzer output) as Go source.
package weave

import (
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Options configures the weaver.
type Options struct {
	// FacadeImport is the import path of the instrumentation runtime
	// (default "failatomic").
	FacadeImport string
	// FacadeName is the package identifier used in the prologue (default:
	// last element of FacadeImport).
	FacadeName string
	// Strip removes instrumentation instead of adding it.
	Strip bool
}

func (o *Options) fill() {
	if o.FacadeImport == "" {
		o.FacadeImport = "failatomic"
	}
	if o.FacadeName == "" {
		o.FacadeName = o.FacadeImport[strings.LastIndexByte(o.FacadeImport, '/')+1:]
	}
}

// edit is one textual change: replace src[Start:End] with Text.
type edit struct {
	Start int
	End   int
	Text  string
}

// InstrumentFile weaves (or strips) one Go source file. It returns the
// gofmt-formatted transformed source and whether anything changed.
func InstrumentFile(filename string, src []byte, opts Options) ([]byte, bool, error) {
	opts.fill()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		return nil, false, fmt.Errorf("weave: parse %s: %w", filename, err)
	}

	var edits []edit
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		name, recv := instrumentationName(fn)
		if name == "" {
			continue
		}
		if opts.Strip {
			if e, ok := stripEdit(fset, src, fn); ok {
				edits = append(edits, e)
			}
			continue
		}
		if hasPrologue(fn) {
			continue
		}
		offset := fset.Position(fn.Body.Lbrace).Offset + 1
		line := fmt.Sprintf("\n\tdefer %s.Enter(%s, %s)()",
			opts.FacadeName, recv, strconv.Quote(name))
		// A statement on the brace's line (a one-line body) needs its own
		// line after the prologue.
		if body := fn.Body.List; len(body) > 0 &&
			fset.Position(body[0].Pos()).Line == fset.Position(fn.Body.Lbrace).Line {
			line += "\n"
		}
		edits = append(edits, edit{Start: offset, End: offset, Text: line})
	}

	if len(edits) == 0 {
		formatted, err := format.Source(src)
		if err != nil {
			return nil, false, fmt.Errorf("weave: format %s: %w", filename, err)
		}
		return formatted, false, nil
	}

	if !opts.Strip {
		if e, ok := importEdit(fset, file, src, opts); ok {
			edits = append(edits, e)
		}
	}

	out := applyEdits(src, edits)
	if opts.Strip {
		// Second pass: drop the facade import if stripping left it unused.
		trimmed, err := dropUnusedImport(filename, out, opts)
		if err != nil {
			return nil, false, err
		}
		out = trimmed
	}
	formatted, err := format.Source(out)
	if err != nil {
		return nil, false, fmt.Errorf("weave: woven %s does not format: %w", filename, err)
	}
	return formatted, true, nil
}

// FileResult reports one file of an InstrumentDir run.
type FileResult struct {
	// Path is the file's location on disk.
	Path string
	// Changed reports whether the file was rewritten.
	Changed bool
}

// InstrumentDir weaves (or strips) every non-test Go file of a package
// directory in place and reports which files changed. With dryRun set no
// file is written.
func InstrumentDir(dir string, opts Options, dryRun bool) ([]FileResult, error) {
	paths, err := packageFiles(dir)
	if err != nil {
		return nil, err
	}
	results := make([]FileResult, 0, len(paths))
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("weave: %w", err)
		}
		out, changed, err := InstrumentFile(filepath.Base(path), src, opts)
		if err != nil {
			return nil, err
		}
		results = append(results, FileResult{Path: path, Changed: changed})
		if changed && !dryRun {
			if err := os.WriteFile(path, out, 0o644); err != nil {
				return nil, fmt.Errorf("weave: %w", err)
			}
		}
	}
	return results, nil
}

// CheckDir verifies a package is fully woven: it returns the
// instrumentation names of every method that lacks a prologue (empty =
// fully instrumented). Intended for CI gates after refactors.
func CheckDir(dir string) ([]string, error) {
	p, err := loadDir(dir)
	if err != nil {
		return nil, err
	}
	var missing []string
	for _, key := range p.keys {
		if f := p.funcs[key]; f.name != "" && !hasPrologue(f.decl) {
			missing = append(missing, key)
		}
	}
	return missing, nil
}

// dropUnusedImport re-parses stripped source and removes the facade import
// if no reference to the facade identifier remains.
func dropUnusedImport(filename string, src []byte, opts Options) ([]byte, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("weave: reparse %s after strip: %w", filename, err)
	}
	if usesCount(file, opts.FacadeName) > 0 {
		return src, nil
	}
	e, ok := removeImportEdit(fset, file, src, opts)
	if !ok {
		return src, nil
	}
	return applyEdits(src, []edit{e}), nil
}

// applyEdits applies non-overlapping edits back to front.
func applyEdits(src []byte, edits []edit) []byte {
	sort.Slice(edits, func(i, j int) bool { return edits[i].Start > edits[j].Start })
	out := append([]byte(nil), src...)
	for _, e := range edits {
		out = append(out[:e.Start], append([]byte(e.Text), out[e.End:]...)...)
	}
	return out
}

// IgnoreDirective exempts a method from weaving and from CheckDir when it
// appears in the method's doc comment. Use it for hot navigation helpers
// whose instrumentation cost the programmer has consciously declined (the
// method is then invisible to injection — the same trade as the paper's
// uninstrumentable core classes, §5.2).
const IgnoreDirective = "//failatomic:ignore"

// hasIgnoreDirective reports whether the function's doc comment opts out.
func hasIgnoreDirective(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.HasPrefix(c.Text, IgnoreDirective) {
			return true
		}
	}
	return false
}

// instrumentationName derives the "Class.Method" label and the receiver
// expression for a function declaration. Constructors (New* functions) get
// "Type.New"-style names with a nil receiver; plain functions and methods
// carrying the ignore directive are skipped.
func instrumentationName(fn *ast.FuncDecl) (name, recv string) {
	if hasIgnoreDirective(fn) {
		return "", ""
	}
	if fn.Recv != nil && len(fn.Recv.List) == 1 {
		field := fn.Recv.List[0]
		class := receiverClass(field.Type)
		if class == "" {
			return "", ""
		}
		// Only pointer receivers can exhibit (or mask) non-atomicity;
		// value receivers get injection-only prologues.
		recvExpr := pointerReceiverName(fn)
		if recvExpr == "" {
			recvExpr = "nil"
		}
		return class + "." + fn.Name.Name, recvExpr
	}
	if strings.HasPrefix(fn.Name.Name, "New") && len(fn.Name.Name) > 3 {
		return strings.TrimPrefix(fn.Name.Name, "New") + ".New", "nil"
	}
	return "", ""
}

func receiverClass(expr ast.Expr) string {
	switch t := expr.(type) {
	case *ast.StarExpr:
		return receiverClass(t.X)
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr: // generic receiver T[P]
		return receiverClass(t.X)
	case *ast.IndexListExpr:
		return receiverClass(t.X)
	default:
		return ""
	}
}

// hasPrologue reports whether the function already starts with an Enter
// prologue: facade.Enter(...), a method handle's mPut.Enter(...), or a
// package-local enter(...) alias.
func hasPrologue(fn *ast.FuncDecl) bool {
	return len(fn.Body.List) > 0 && isPrologue(fn.Body.List[0])
}

func isPrologue(stmt ast.Stmt) bool {
	def, ok := stmt.(*ast.DeferStmt)
	if !ok {
		return false
	}
	inner, ok := def.Call.Fun.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := inner.Fun.(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name == "Enter"
	case *ast.Ident:
		return fun.Name == "enter" || fun.Name == "Enter"
	default:
		return false
	}
}

// stripEdit deletes a leading prologue line (including its newline).
func stripEdit(fset *token.FileSet, src []byte, fn *ast.FuncDecl) (edit, bool) {
	if !hasPrologue(fn) {
		return edit{}, false
	}
	stmt := fn.Body.List[0]
	start := fset.Position(stmt.Pos()).Offset
	end := fset.Position(stmt.End()).Offset
	// Extend backwards over the line's indentation.
	for start > 0 && (src[start-1] == ' ' || src[start-1] == '\t') {
		start--
	}
	// Extend forward over the trailing newline.
	if end < len(src) && src[end] == '\n' {
		end++
	}
	return edit{Start: start, End: end}, true
}

// importEdit ensures the facade import is present.
func importEdit(fset *token.FileSet, file *ast.File, src []byte, opts Options) (edit, bool) {
	quoted := strconv.Quote(opts.FacadeImport)
	for _, imp := range file.Imports {
		if imp.Path.Value == quoted {
			return edit{}, false
		}
	}
	spec := quoted
	if base := opts.FacadeImport[strings.LastIndexByte(opts.FacadeImport, '/')+1:]; base != opts.FacadeName {
		spec = opts.FacadeName + " " + quoted
	}
	for _, decl := range file.Decls {
		gen, ok := decl.(*ast.GenDecl)
		if !ok || gen.Tok != token.IMPORT {
			continue
		}
		if gen.Lparen.IsValid() {
			offset := fset.Position(gen.Lparen).Offset + 1
			return edit{Start: offset, End: offset, Text: "\n\t" + spec}, true
		}
		// Single non-parenthesized import: add another import decl after.
		offset := fset.Position(gen.End()).Offset
		return edit{Start: offset, End: offset, Text: "\nimport " + spec}, true
	}
	// No imports at all: insert after the package clause.
	offset := fset.Position(file.Name.End()).Offset
	return edit{Start: offset, End: offset, Text: "\n\nimport " + spec}, true
}

// removeImportEdit locates the facade import for deletion: the whole
// declaration when it is a sole non-parenthesized import, otherwise just
// the spec's line.
func removeImportEdit(fset *token.FileSet, file *ast.File, src []byte, opts Options) (edit, bool) {
	quoted := strconv.Quote(opts.FacadeImport)
	for _, decl := range file.Decls {
		gen, ok := decl.(*ast.GenDecl)
		if !ok || gen.Tok != token.IMPORT {
			continue
		}
		for _, spec := range gen.Specs {
			imp, ok := spec.(*ast.ImportSpec)
			if !ok || imp.Path.Value != quoted {
				continue
			}
			var start, end int
			if len(gen.Specs) == 1 {
				start = fset.Position(gen.Pos()).Offset
				end = fset.Position(gen.End()).Offset
			} else {
				start = fset.Position(imp.Pos()).Offset
				end = fset.Position(imp.End()).Offset
			}
			for start > 0 && (src[start-1] == ' ' || src[start-1] == '\t') {
				start--
			}
			if end < len(src) && src[end] == '\n' {
				end++
			}
			return edit{Start: start, End: end}, true
		}
	}
	return edit{}, false
}

// usesCount counts selector references to the facade identifier.
func usesCount(file *ast.File, name string) int {
	n := 0
	ast.Inspect(file, func(node ast.Node) bool {
		sel, ok := node.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == name {
			n++
		}
		return true
	})
	return n
}
