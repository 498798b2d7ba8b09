package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Call classification shared by the analyzers. Classification is
// type-driven where possible (receiver resolves to pmem.Device /
// pmem.Batch, or to a sync/atomic type); where type information is
// incomplete it falls back to conservative name-based heuristics so the
// suite degrades rather than going silent.

// callee splits a call into its selector receiver and method name.
// Plain function calls (ident callees) return name with a nil recv.
func callee(call *ast.CallExpr) (recv ast.Expr, name string) {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return fn.X, fn.Sel.Name
	case *ast.Ident:
		return nil, fn.Name
	}
	return nil, ""
}

// namedIn reports whether t (after pointer indirection) is the named
// type typeName declared in a package whose import path ends in
// pkgSuffix.
func namedIn(t types.Type, pkgSuffix, typeName string) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Name() != typeName || obj.Pkg() == nil {
		return false
	}
	p := obj.Pkg().Path()
	return p == pkgSuffix || strings.HasSuffix(p, "/"+pkgSuffix)
}

// recvType resolves the static type of a call's receiver expression,
// or nil when type information is missing.
func recvType(pkg *Package, recv ast.Expr) types.Type {
	if recv == nil {
		return nil
	}
	if tv, ok := pkg.Info.Types[recv]; ok && tv.Type != nil {
		return tv.Type
	}
	return nil
}

// exprPath renders a receiver expression as a stable textual path for
// matching lock/unlock pairs: identifiers and field selections joined
// by dots, with every index normalized to [*] (so s.locks[i] and
// s.locks[j] match). Expressions containing calls or other unmatchable
// forms render as "".
func exprPath(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := exprPath(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.IndexExpr:
		base := exprPath(e.X)
		if base == "" {
			return ""
		}
		return base + "[*]"
	case *ast.StarExpr:
		return exprPath(e.X)
	case *ast.UnaryExpr:
		return exprPath(e.X)
	}
	return ""
}

// isDeviceCall reports whether call invokes one of names as a method on
// pmem.Device. Falls back to matching receivers spelled "dev"/"device"
// (or ending in ".dev"/".device") when types did not resolve.
func isDeviceCall(pkg *Package, call *ast.CallExpr, names ...string) bool {
	recv, method := callee(call)
	if recv == nil || !contains(names, method) {
		return false
	}
	if t := recvType(pkg, recv); t != nil {
		return namedIn(t, "internal/pmem", "Device")
	}
	path := exprPath(recv)
	return path == "dev" || path == "device" ||
		strings.HasSuffix(path, ".dev") || strings.HasSuffix(path, ".device")
}

// isBatchCall reports whether call invokes one of names on pmem.Batch.
func isBatchCall(pkg *Package, call *ast.CallExpr, names ...string) bool {
	recv, method := callee(call)
	if recv == nil || !contains(names, method) {
		return false
	}
	if t := recvType(pkg, recv); t != nil {
		return namedIn(t, "internal/pmem", "Batch")
	}
	path := exprPath(recv)
	return path == "batch" || strings.HasSuffix(path, ".batch") || path == "b"
}

// atomicOps are the mutating/reading operation names shared by the
// sync/atomic package functions and the atomic.IntN/UintN/... methods.
var atomicWriteOps = []string{"Store", "Add", "Swap", "CompareAndSwap", "Or", "And"}

// isAtomicPublish reports whether call is an atomic store-like
// operation: a sync/atomic package function (StoreUint64, AddUint32,
// OrUint32, ...) or a method on one of the sync/atomic value types
// (atomic.Uint64, atomic.Bool, ...). These are the "publish" points the
// persistorder analyzer orders against flushes.
func isAtomicPublish(pkg *Package, call *ast.CallExpr) bool {
	recv, method := callee(call)
	if recv == nil {
		return false
	}
	// Package function: atomic.StoreUint64(&x, v) etc.
	if id, ok := ast.Unparen(recv).(*ast.Ident); ok {
		if obj, ok := pkg.Info.Uses[id]; ok {
			if pn, ok := obj.(*types.PkgName); ok {
				if pn.Imported().Path() == "sync/atomic" {
					for _, op := range atomicWriteOps {
						if strings.HasPrefix(method, op) {
							return true
						}
					}
				}
				return false
			}
		}
	}
	// Method on an atomic value type: x.durable.Store(v) etc.
	if !contains(atomicWriteOps, method) {
		return false
	}
	if t := recvType(pkg, recv); t != nil {
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			if obj := named.Obj(); obj != nil && obj.Pkg() != nil {
				return obj.Pkg().Path() == "sync/atomic"
			}
		}
	}
	return false
}

// isAtomicFuncCall reports whether call is any sync/atomic package
// function, returning the function name.
func isAtomicFuncCall(pkg *Package, call *ast.CallExpr) (string, bool) {
	recv, method := callee(call)
	if recv == nil {
		return "", false
	}
	id, ok := ast.Unparen(recv).(*ast.Ident)
	if !ok {
		return "", false
	}
	obj, ok := pkg.Info.Uses[id]
	if !ok {
		return "", false
	}
	pn, ok := obj.(*types.PkgName)
	if !ok || pn.Imported().Path() != "sync/atomic" {
		return "", false
	}
	return method, true
}

// localBatchObjs returns the variable objects bound to a batch created
// in this scope (b := dev.NewBatch(), or var b = dev.NewBatch()). A
// scope that creates a batch owns its fence; a scope that only receives
// one (parameter, struct field, channel message) flushes into it on the
// owner's behalf.
func localBatchObjs(pkg *Package, scope funcScope) map[types.Object]bool {
	objs := make(map[types.Object]bool)
	bind := func(lhs ast.Expr, rhs ast.Expr) {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || !isDeviceCall(pkg, call, "NewBatch") {
			return
		}
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		if obj := pkg.Info.Defs[id]; obj != nil {
			objs[obj] = true
		} else if obj := pkg.Info.Uses[id]; obj != nil {
			objs[obj] = true
		}
	}
	walkScope(scope.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Rhs {
					bind(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Values {
					bind(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
	return objs
}

// isForeignBatchCall reports whether call is a method on a pmem.Batch
// the scope did not create: its fence is the batch owner's duty
// (applyRuns flushes into the Reproduce loop's batch; the loop fences
// once per replay run). Requires resolved
// type information — name-fallback receivers are never foreign, so the
// exemption can only relax a call the types prove is a Batch.
func isForeignBatchCall(pkg *Package, call *ast.CallExpr, local map[types.Object]bool) bool {
	recv, _ := callee(call)
	if recv == nil {
		return false
	}
	t := recvType(pkg, recv)
	if t == nil || !namedIn(t, "internal/pmem", "Batch") {
		return false
	}
	if id, ok := ast.Unparen(recv).(*ast.Ident); ok {
		if obj := pkg.Info.Uses[id]; obj != nil && local[obj] {
			return false
		}
	}
	return true
}

// batchEscapes returns the positions where a locally created batch is
// used other than as a Flush/Fence receiver — passed as a call
// argument, stored in a composite literal, sent on a channel. An escape
// hands the batch to code that will flush into it, so for fence/flush
// pairing it is flush-like evidence that the scope's fence orders real
// work.
func batchEscapes(pkg *Package, scope funcScope, local map[types.Object]bool) []token.Pos {
	if len(local) == 0 {
		return nil
	}
	recvIdent := make(map[token.Pos]bool)
	walkScope(scope.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if recv, name := callee(call); recv != nil && (name == "Flush" || name == "Fence") {
			if id, ok := ast.Unparen(recv).(*ast.Ident); ok {
				recvIdent[id.Pos()] = true
			}
		}
		return true
	})
	var escapes []token.Pos
	walkScope(scope.body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := pkg.Info.Uses[id]; obj != nil && local[obj] && !recvIdent[id.Pos()] {
			escapes = append(escapes, id.Pos())
		}
		return true
	})
	return escapes
}

func contains(names []string, s string) bool {
	for _, n := range names {
		if n == s {
			return true
		}
	}
	return false
}

// funcScopes yields every function-like body in file as an independent
// analysis scope: each FuncDecl and each FuncLit. Nested FuncLits are
// separate scopes and are NOT revisited by the enclosing scope's
// walker, since events inside a closure do not execute in the enclosing
// function's statement order.
type funcScope struct {
	name string // declared name, or "func literal"
	body *ast.BlockStmt
	decl *ast.FuncDecl // nil for literals
}

func funcScopes(file *ast.File) []funcScope {
	var scopes []funcScope
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				scopes = append(scopes, funcScope{name: n.Name.Name, body: n.Body, decl: n})
			}
		case *ast.FuncLit:
			scopes = append(scopes, funcScope{name: "func literal", body: n.Body})
		}
		return true
	})
	return scopes
}

// walkScope walks body, visiting nodes but not descending into nested
// FuncLits (which form their own scopes).
func walkScope(body *ast.BlockStmt, visit func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return visit(n)
	})
}
