// Package proxy is the Go analog of the paper's Java Wrapper Generator
// (§5.2): it interposes on methods of *compiled* types — no source access,
// no woven prologues — using runtime reflection. Generic pre/post filters
// can be attached at application, class, instance, or method level; they
// can throw exceptions, bypass execution, modify arguments and results,
// and mask exceptions, exactly the capabilities the paper lists.
//
// Detection and masking are not filters: Invoke enters the wrapped method
// the way a woven prologue does, through the method's handle for
// "Class.Method", so a proxied object runs under the same engine as woven
// code. failatomic.Detect over a Program whose Run calls through proxies
// injects, marks and classifies proxied methods, and failatomic.Protect
// checkpoints and rolls them back.
//
// The trade-offs mirror the paper's: reflection dispatch is slower than
// woven prologues, and interposition only sees the wrapped boundary — a
// method's internal calls bypass the proxy, so detection over proxies is
// top-level only (the same way the JWG could not instrument core Java
// classes). A proxied method that calls another proxied object nests like
// woven calls do.
package proxy

import (
	"fmt"
	"reflect"
	"slices"

	"failatomic/internal/core"
	"failatomic/internal/fault"
)

// Invocation describes one intercepted call; pre-filters may mutate Args
// or bypass the call entirely.
type Invocation struct {
	// Class is the wrapped type's name.
	Class string
	// Method is the invoked method name.
	Method string
	// Args are the incoming arguments (mutable).
	Args []any
	// Target is the wrapped object.
	Target any

	bypass  bool
	results []any
}

// Bypass skips the real method and returns the given results instead.
func (inv *Invocation) Bypass(results ...any) {
	inv.bypass = true
	inv.results = results
}

// Name returns the "Class.Method" label.
func (inv *Invocation) Name() string { return inv.Class + "." + inv.Method }

// Outcome describes a completed call; post-filters may mutate Results or
// mask the exception.
type Outcome struct {
	// Results are the outgoing return values (mutable).
	Results []any
	// Exception is non-nil when the method terminated exceptionally.
	Exception *fault.Exception
}

// Mask clears the exception so the caller observes a normal return with
// the given results.
func (o *Outcome) Mask(results ...any) {
	o.Exception = nil
	if results != nil {
		o.Results = results
	}
}

// Filter intercepts invocations around the wrapped method.
type Filter interface {
	// Before runs before the method; it may mutate arguments, throw, or
	// bypass.
	Before(inv *Invocation)
	// After runs after the method (normal or exceptional); it may mutate
	// the outcome.
	After(inv *Invocation, out *Outcome)
}

// FilterFuncs adapts two closures to Filter; either may be nil.
type FilterFuncs struct {
	Pre  func(inv *Invocation)
	Post func(inv *Invocation, out *Outcome)
}

// Before implements Filter.
func (f FilterFuncs) Before(inv *Invocation) {
	if f.Pre != nil {
		f.Pre(inv)
	}
}

// After implements Filter.
func (f FilterFuncs) After(inv *Invocation, out *Outcome) {
	if f.Post != nil {
		f.Post(inv, out)
	}
}

// TraceFilter records the invocation order — the classic JWG demo filter.
type TraceFilter struct {
	// Label tags the filter's entries.
	Label string
	// Events accumulates "pre:Label:Class.Method" / "post:..." entries.
	Events *[]string
}

// Before implements Filter.
func (f TraceFilter) Before(inv *Invocation) {
	*f.Events = append(*f.Events, "pre:"+f.Label+":"+inv.Name())
}

// After implements Filter.
func (f TraceFilter) After(inv *Invocation, out *Outcome) {
	*f.Events = append(*f.Events, "post:"+f.Label+":"+inv.Name())
}

// Generator wraps objects and owns the application/class/method filter
// tables (instance filters live on each Proxy).
type Generator struct {
	global   []Filter
	byClass  map[string][]Filter
	byMethod map[string][]Filter
}

// NewGenerator returns an empty generator.
func NewGenerator() *Generator {
	return &Generator{
		byClass:  make(map[string][]Filter),
		byMethod: make(map[string][]Filter),
	}
}

// AddFilter attaches an application-level filter (every wrapped call).
func (g *Generator) AddFilter(f Filter) { g.global = append(g.global, f) }

// AddClassFilter attaches a filter to every method of a class.
func (g *Generator) AddClassFilter(class string, f Filter) {
	g.byClass[class] = append(g.byClass[class], f)
}

// AddMethodFilter attaches a filter to one "Class.Method".
func (g *Generator) AddMethodFilter(name string, f Filter) {
	g.byMethod[name] = append(g.byMethod[name], f)
}

// Proxy interposes on one wrapped object.
type Proxy struct {
	gen    *Generator
	target reflect.Value
	recv   any
	class  string
	// names and handles are indexed by reflect.Method.Index: the exported
	// method names, sorted as reflect numbers them, and each method's
	// "Class.Method" handle.
	names    []string
	handles  []*core.MethodHandle
	instance []Filter
}

// Wrap builds a proxy for target, which must be a non-nil pointer (so
// methods with pointer receivers are addressable) to a named type (its
// name is the class of every "Class.Method" handle).
func (g *Generator) Wrap(target any) (*Proxy, error) {
	v := reflect.ValueOf(target)
	if !v.IsValid() || v.Kind() != reflect.Pointer || v.IsNil() {
		return nil, fmt.Errorf("proxy: target must be a non-nil pointer, got %T", target)
	}
	t := v.Type()
	class := t.Elem().Name()
	if class == "" {
		return nil, fmt.Errorf("proxy: target %T points to an unnamed type", target)
	}
	p := &Proxy{
		gen:     g,
		target:  v,
		recv:    target,
		class:   class,
		names:   make([]string, t.NumMethod()),
		handles: make([]*core.MethodHandle, t.NumMethod()),
	}
	for i := range p.names {
		p.names[i] = t.Method(i).Name
		p.handles[i] = core.Method(class + "." + p.names[i])
	}
	return p, nil
}

// Class returns the wrapped type's name.
func (p *Proxy) Class() string { return p.class }

// Target returns the wrapped object.
func (p *Proxy) Target() any { return p.recv }

// AddFilter attaches an instance-level filter.
func (p *Proxy) AddFilter(f Filter) { p.instance = append(p.instance, f) }

// filters returns the chain for a method: application, class, instance,
// then method filters.
func (p *Proxy) filters(name string) []Filter {
	var chain []Filter
	chain = append(chain, p.gen.global...)
	chain = append(chain, p.gen.byClass[p.class]...)
	chain = append(chain, p.instance...)
	chain = append(chain, p.gen.byMethod[name]...)
	return chain
}

// Invoke calls the named method through the filter chain. Pre-filters run
// outermost-first; post-filters run innermost-first. Between them the
// method runs under its session prologue, as a woven method would. An
// exception — thrown by the method, a filter, or an injection — is
// returned as an error unless a post-filter masks it. Arguments that do not
// fit the method's parameters are an IllegalArgument exception raised
// before the prologue, so no session sees the call.
func (p *Proxy) Invoke(method string, args ...any) ([]any, error) {
	i, ok := slices.BinarySearch(p.names, method)
	if !ok {
		return nil, fmt.Errorf("proxy: %s has no method %s", p.class, method)
	}
	h := p.handles[i]
	inv := &Invocation{
		Class:  p.class,
		Method: method,
		Args:   args,
		Target: p.recv,
	}
	chain := p.filters(h.Name())

	out := &Outcome{}
	entered := 0 // only filters whose Before ran get their After
	func() {
		defer func() {
			if r := recover(); r != nil {
				out.Exception = fault.From(r)
			}
		}()
		for _, f := range chain {
			entered++
			f.Before(inv)
			if inv.bypass {
				out.Results = inv.results
				return
			}
		}
		m := p.target.Method(i)
		in, err := adaptArgs(m.Type(), inv.Args)
		if err != nil {
			panic(&fault.Exception{Kind: fault.IllegalArgument, Method: inv.Name(), Msg: err.Error()})
		}
		outs := enterCall(h, p.recv, m, in)
		out.Results = make([]any, len(outs))
		for i, o := range outs {
			out.Results[i] = o.Interface()
		}
	}()

	for i := entered - 1; i >= 0; i-- {
		func(f Filter) {
			defer func() {
				if r := recover(); r != nil {
					out.Exception = fault.From(r)
				}
			}()
			f.After(inv, out)
		}(chain[i])
	}

	if out.Exception != nil {
		return out.Results, out.Exception
	}
	return out.Results, nil
}

// enterCall is the reflect call under h's prologue: a woven method's
// defer h.Enter(recv)() at the top of its body.
func enterCall(h *core.MethodHandle, recv any, m reflect.Value, in []reflect.Value) []reflect.Value {
	defer h.Enter(recv)()
	return m.Call(in)
}

// MustInvoke is Invoke for tests and examples: it re-panics exceptions.
func (p *Proxy) MustInvoke(method string, args ...any) []any {
	results, err := p.Invoke(method, args...)
	if err != nil {
		panic(err)
	}
	return results
}

// adaptArgs converts []any arguments to the reflect values a call of a
// method of type t takes.
func adaptArgs(t reflect.Type, args []any) ([]reflect.Value, error) {
	if t.IsVariadic() {
		return nil, fmt.Errorf("variadic methods are not supported")
	}
	if t.NumIn() != len(args) {
		return nil, fmt.Errorf("want %d args, got %d", t.NumIn(), len(args))
	}
	in := make([]reflect.Value, len(args))
	for i, arg := range args {
		want := t.In(i)
		if arg == nil {
			in[i] = reflect.Zero(want)
			continue
		}
		v := reflect.ValueOf(arg)
		if !v.Type().AssignableTo(want) {
			if !v.Type().ConvertibleTo(want) {
				return nil, fmt.Errorf("arg %d: %s not assignable to %s", i, v.Type(), want)
			}
			v = v.Convert(want)
		}
		in[i] = v
	}
	return in, nil
}
