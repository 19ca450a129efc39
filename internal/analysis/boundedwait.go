package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// unboundedWaits seeds the set of blocking completion waits that spin
// forever if the awaited notification, CQE, or completion never arrives
// — the calls PR 1 added ...Timeout variants for. At analysis time the
// set is widened with whatever non-Timeout Wait/Poll methods the
// transport.Endpoint interface declares (see waitNames), so a new
// endpoint wait is covered the moment it is added to the interface,
// without touching this list.
var unboundedWaits = map[string]bool{
	"DevWaitComplete":   true,
	"HostWaitComplete":  true,
	"DevWaitNotif":      true,
	"HostWaitNotif":     true,
	"DevWaitNotifValue": true,
	"DevPollCQ":         true,
	"HostPollCQ":        true,
	"DevAwaitAssistAck": true,
}

// waitNames returns the unbounded-wait name set for this pass: the seed
// list plus every Dev*/Host* method of transport.Endpoint whose name
// says Wait or Poll and that has no bounded (...Timeout) spelling.
func waitNames(pass *Pass) map[string]bool {
	names := map[string]bool{}
	for k := range unboundedWaits {
		names[k] = true
	}
	ep := endpointInterface(pass.Pkg)
	if ep == nil {
		return names
	}
	for i := 0; i < ep.NumMethods(); i++ {
		n := ep.Method(i).Name()
		if !strings.HasPrefix(n, "Dev") && !strings.HasPrefix(n, "Host") {
			continue
		}
		if strings.HasSuffix(n, "Timeout") {
			continue
		}
		if strings.Contains(n, "Wait") || strings.Contains(n, "Poll") {
			names[n] = true
		}
	}
	return names
}

// endpointInterface finds the transport.Endpoint interface among the
// package under analysis and its transitive imports (loaded as export
// data), or nil when transport is not in the dependency cone.
func endpointInterface(pkg *types.Package) *types.Interface {
	var find func(p *types.Package, seen map[*types.Package]bool) *types.Interface
	find = func(p *types.Package, seen map[*types.Package]bool) *types.Interface {
		if seen[p] {
			return nil
		}
		seen[p] = true
		if p.Path() == transportPkgPath {
			if tn, ok := p.Scope().Lookup("Endpoint").(*types.TypeName); ok {
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
					return iface
				}
			}
			return nil
		}
		for _, imp := range p.Imports() {
			if iface := find(imp, seen); iface != nil {
				return iface
			}
		}
		return nil
	}
	return find(pkg, map[*types.Package]bool{})
}

// BoundedWait flags calls to non-timeout blocking waits outside test
// files, module-wide (cmd/* and examples/* included: an example that
// deadlocks teaches the API wrong). A call is exempt when it appears
// inside the wait's own implementation — any function transitively
// reachable, through the package call graph, from a function named like
// a wait. That covers the delegation ladder by which transport adapters
// implement Endpoint.DevWaitComplete in terms of core's DevWaitNotif,
// however many local helpers the ladder is factored into — the old rule
// only exempted functions that happened to share the wait's name.
var BoundedWait = &Analyzer{
	Name: "boundedwait",
	Doc:  "flag unbounded blocking waits (DevWaitComplete, HostWaitNotif, DevPollCQ, ...) outside test files; use the ...Timeout variants or annotate",
	Run:  runBoundedWait,
}

func runBoundedWait(pass *Pass) error {
	names := waitNames(pass)
	g := buildCallGraph(pass)
	var roots []*types.Func
	for fn := range g.decls {
		if names[fn.Name()] {
			roots = append(roots, fn)
		}
	}
	exempt := g.reachable(roots)
	for _, f := range pass.Files {
		if pass.isTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok && exempt[fn] {
				continue // part of a wait's own delegation ladder
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok || !names[sel.Sel.Name] {
					return true
				}
				pass.Reportf(call.Pos(),
					"unbounded blocking wait %s outside a test: use the bounded %sTimeout variant and handle the timeout, or annotate with //putget:allow boundedwait -- <reason>",
					sel.Sel.Name, timeoutBase(sel.Sel.Name))
				return true
			})
		}
	}
	return nil
}

// timeoutBase names the bounded variant's stem for the message:
// DevWaitNotifValue's bounded form is DevWaitNotifTimeout.
func timeoutBase(name string) string {
	if name == "DevWaitNotifValue" {
		return "DevWaitNotif"
	}
	return name
}
