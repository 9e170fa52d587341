package weave

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// pkg is the package model every analysis here runs on: each file parsed
// once, one vertex per function, and one conservative call graph. The
// inventory's fault kinds, the exception-free inference and the Item-76
// ladder are all fixpoints over the same graph, and the rewriter edits the
// same files and sources it was computed from.
type pkg struct {
	// name is the Go package name (from the first file).
	name  string
	fset  *token.FileSet
	files map[string]*ast.File
	srcs  map[string][]byte
	// funcs holds one vertex per function declaration with a body, keyed by
	// instrumentation name for methods and constructors and by
	// "func:Name" for plain helpers.
	funcs map[string]*function
	// keys lists the funcs keys, sorted.
	keys []string
	// byBare indexes keys by bare name: a call resolves to every function
	// of the package with that name (§4.3's conservative call graph — no
	// type resolution; extra edges cost precision, never soundness).
	byBare map[string][]string
	// callees lists each vertex's resolved callees, sorted.
	callees map[string][]string
}

// function is one vertex of the package model.
type function struct {
	// name is the instrumentation name; "" for plain helpers, which take
	// part in propagation but are not inventoried.
	name string
	decl *ast.FuncDecl
	path string
	// body is the declaration's body without the Enter prologue (the
	// prologue is instrumentation, not behavior).
	body *ast.BlockStmt
	// recv is the pointer-receiver identifier; "" otherwise.
	recv string
}

// packageFiles lists the non-test Go sources of a package directory.
func packageFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("weave: %w", err)
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		files = append(files, filepath.Join(dir, name))
	}
	sort.Strings(files)
	return files, nil
}

// loadDir loads the non-test sources of a package directory.
func loadDir(dir string) (*pkg, error) {
	paths, err := packageFiles(dir)
	if err != nil {
		return nil, err
	}
	return loadPackage(paths)
}

// loadPackage parses the given files of one package (with comments, so
// ignore directives are visible) and builds its call graph.
func loadPackage(paths []string) (*pkg, error) {
	p := &pkg{
		fset:    token.NewFileSet(),
		files:   make(map[string]*ast.File, len(paths)),
		srcs:    make(map[string][]byte, len(paths)),
		funcs:   make(map[string]*function),
		byBare:  make(map[string][]string),
		callees: make(map[string][]string),
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("weave: %w", err)
		}
		file, err := parser.ParseFile(p.fset, path, src, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("weave: parse %s: %w", path, err)
		}
		if p.name == "" {
			p.name = file.Name.Name
		}
		p.files[path] = file
		p.srcs[path] = src
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			name, _ := instrumentationName(fn)
			key := name
			if key == "" {
				key = "func:" + fn.Name.Name
			}
			body := fn.Body
			if hasPrologue(fn) {
				body = &ast.BlockStmt{List: fn.Body.List[1:]}
			}
			p.funcs[key] = &function{name: name, decl: fn, path: path, body: body, recv: pointerReceiverName(fn)}
		}
	}
	for key := range p.funcs {
		p.keys = append(p.keys, key)
		bare := strings.TrimPrefix(key, "func:")
		bare = bare[strings.IndexByte(bare, '.')+1:]
		p.byBare[bare] = append(p.byBare[bare], key)
	}
	sort.Strings(p.keys)
	for _, key := range p.keys {
		set := make(map[string]bool)
		ast.Inspect(p.funcs[key].body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				for _, callee := range p.resolve(call) {
					set[callee] = true
				}
			}
			return true
		})
		p.callees[key] = sortedKeys(set)
	}
	return p, nil
}

// resolve returns the package functions a call may reach, by bare name. A
// constructor is keyed "X.New" but called as NewX, so that spelling
// resolves to it too.
func (p *pkg) resolve(call *ast.CallExpr) []string {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		return p.byBare[fun.Sel.Name]
	case *ast.Ident:
		keys := p.byBare[fun.Name]
		if class, ok := strings.CutPrefix(fun.Name, "New"); ok && class != "" && p.funcs[class+".New"] != nil {
			keys = append(keys[:len(keys):len(keys)], class+".New")
		}
		return keys
	}
	return nil
}

// fixpoint propagates a relation over the call graph until stable: step
// folds one callee's facts into its caller's and reports a change.
func (p *pkg) fixpoint(step func(key, callee string) bool) {
	for changed := true; changed; {
		changed = false
		for _, key := range p.keys {
			for _, callee := range p.callees[key] {
				if step(key, callee) {
					changed = true
				}
			}
		}
	}
}
