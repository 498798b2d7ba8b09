package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// Interprocedural layer: a module-wide call graph with per-function
// effect summaries, computed to a fixpoint. The analyzers stay
// statement-order checks over a single function body, but the event
// stream they walk now includes the summarized effects of every call
// they can resolve statically, so a flush that happens in a helper, a
// fence hidden behind AppendGroup, or an atomic publish buried in
// setDurable is no longer invisible.
//
// Summaries distinguish persist *facts* (a flush happened, a fence
// happened, an atomic publish happened) from persist *obligations* (a
// store left unflushed, a flush left unfenced). Facts always propagate
// to callers. Obligations propagate only while unsuppressed: a
// //dudelint:ignore on the offending line is a human judgment that the
// deviation is deliberate at that boundary, so it stops the obligation
// from cascading up every call chain.
//
// The pmem package itself is the substrate, not a client: its Device
// and Batch operations are classified intrinsically at call sites
// (isDeviceCall / isBatchCall) and its bodies are not summarized. Calls
// into the blackbox flight recorder contribute no persist events either
// (its split-barrier Stamp/Flush/Sync API is a documented invariant of
// its own), but its fences do count toward fence budgets.

// fenceInf is the saturation value for fence counts: a recursive cycle
// that fences on every iteration has no static worst case.
const fenceInf = 1 << 28

// lockKey names one mutex path for summary purposes. Paths are
// receiver-normalized: a method's receiver identifier is rewritten to
// "@", so (s *S) release() { s.mu.Unlock() } releases "@.mu" no matter
// what the receiver is called. Receiver-relative paths carry the
// receiver's type name, so gate.resume releasing "@.mu" does not stand
// in for table's "@.mu" — "@" means "some receiver of this type", not
// "any receiver at all".
type lockKey struct {
	path     string
	read     bool
	recvType string // receiver type name for "@"-relative paths, else ""
}

// AllocSite is one statically detectable heap allocation inside a
// function body.
type AllocSite struct {
	Pos  token.Pos
	What string
}

// CallSite is one statically resolved call to a module function.
type CallSite struct {
	Pos token.Pos
	Key string
}

// Summary is the effect summary of one function, the unit the fixpoint
// iterates over.
type Summary struct {
	// Persist obligations (propagate only while unsuppressed).
	StoresUnflushed bool // leaves a pmem store with no covering flush
	UnfencedFlush   bool // leaves an own-batch flush with no closing fence
	// Persist facts (always propagate).
	CoveredFlush bool // performs a write-back that carries no fence obligation upward
	HasFence     bool // executes a persist barrier on some path
	Publishes    bool // performs a sync/atomic store-like operation
	// Worst-/best-case persist barriers per activation (loop bodies
	// count once; see fenceCount). Saturates at fenceInf for recursion.
	MinFences int
	MaxFences int
	// Pure lock releases: Unlock/RUnlock of a path with no prior
	// matching Lock in the same body — the Resume half of a pause gate.
	Releases []lockKey
	// Local heap-allocation sites (this body only; reachability is the
	// noalloc analyzer's job).
	Allocs []AllocSite
	// Resolved static callees, in position order.
	Calls []CallSite
}

// propagated returns the fields the fixpoint compares for convergence
// (the locally computed slices never change across rounds).
func (s Summary) propagated() [7]int {
	b := func(v bool) int {
		if v {
			return 1
		}
		return 0
	}
	return [7]int{b(s.StoresUnflushed), b(s.UnfencedFlush), b(s.CoveredFlush),
		b(s.HasFence), b(s.Publishes), s.MinFences, s.MaxFences}
}

// FuncInfo is one module function in the call graph.
type FuncInfo struct {
	Key  string // (*types.Func).FullName(): stable across loader views
	Pkg  *Package
	Decl *ast.FuncDecl
	Recv string // receiver identifier, "" when none
	Sum  Summary

	// Hot-path annotations (see annotations.go... parsed below).
	FenceBudget int
	HasBudget   bool
	NoAlloc     bool
}

// annotIssue is a malformed or dangling hot-path annotation, reported
// by the analyzer the annotation belongs to.
type annotIssue struct {
	pos      token.Pos
	analyzer string // "fencebudget" or "noalloc"
	msg      string
}

// Program is the whole-module view shared by every Pass of a run.
type Program struct {
	funcs   map[string]*FuncInfo
	ignores map[*ast.File]map[int][]*ignoreDirective
	issues  map[*Package][]annotIssue
}

// FuncOf resolves the FuncInfo a call statically targets, or nil for
// intrinsics (pmem), stdlib, interface dispatch, and func values.
func (prog *Program) FuncOf(pkg *Package, call *ast.CallExpr) *FuncInfo {
	if prog == nil {
		return nil
	}
	var obj types.Object
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fn]; ok {
			obj = sel.Obj()
		} else if o, ok := pkg.Info.Uses[fn.Sel]; ok {
			obj = o
		}
	case *ast.Ident:
		if o, ok := pkg.Info.Uses[fn]; ok {
			obj = o
		}
	}
	f, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	return prog.funcs[f.FullName()]
}

// funcsOf returns the program's functions declared in pkg, in file and
// position order.
func (prog *Program) funcsOf(pkg *Package) []*FuncInfo {
	var fis []*FuncInfo
	for _, f := range pkg.Files {
		for _, d := range f.AST.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if fi := prog.declInfo(pkg, fd); fi != nil {
					fis = append(fis, fi)
				}
			}
		}
	}
	return fis
}

func (prog *Program) declInfo(pkg *Package, decl *ast.FuncDecl) *FuncInfo {
	obj, ok := pkg.Info.Defs[decl.Name].(*types.Func)
	if !ok {
		return nil
	}
	fi := prog.funcs[obj.FullName()]
	if fi == nil || fi.Decl != decl {
		return nil
	}
	return fi
}

// isPmemPackage reports whether pkg is the persistent-memory substrate,
// whose operations are intrinsics rather than summarized functions.
func isPmemPackage(pkg *Package) bool {
	return strings.HasSuffix(pkg.Path, "internal/pmem") || strings.TrimSuffix(pkg.Name, "_test") == "pmem"
}

// isBlackboxPackage reports whether pkg is the flight recorder, whose
// calls contribute no persist events to callers (by design its
// write-backs ride the pipeline's barriers).
func isBlackboxPackage(pkg *Package) bool {
	return strings.TrimSuffix(pkg.Name, "_test") == "blackbox"
}

// buildProgram indexes every function of pkgs (earlier packages win key
// collisions, so LoadDir views take precedence over import views),
// parses hot-path annotations, computes local summaries, and iterates
// callee-dependent facts to a fixpoint.
func buildProgram(pkgs []*Package, root string) *Program {
	prog := &Program{
		funcs:   make(map[string]*FuncInfo),
		ignores: make(map[*ast.File]map[int][]*ignoreDirective),
		issues:  make(map[*Package][]annotIssue),
	}
	var order []*FuncInfo
	seenDir := make(map[string]bool)
	for _, pkg := range pkgs {
		if isPmemPackage(pkg) {
			continue
		}
		// A directory can appear both as a LoadDir view and an import
		// view; the first (LoadDir) wins wholesale so a package's
		// functions all come from one consistent type-check.
		dirKey := pkg.Dir + "\x00" + strings.TrimSuffix(pkg.Name, "_test")
		if strings.HasSuffix(pkg.Name, "_test") {
			dirKey = pkg.Dir + "\x00" + pkg.Name
		}
		if seenDir[dirKey] {
			continue
		}
		seenDir[dirKey] = true
		for _, f := range pkg.Files {
			ig, _ := ignoresForFile(pkg.Fset, f.AST, root)
			prog.ignores[f.AST] = ig
			ann := annotationsForFile(pkg, f)
			for _, d := range f.AST.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				key := obj.FullName()
				if _, dup := prog.funcs[key]; dup {
					continue
				}
				fi := &FuncInfo{Key: key, Pkg: pkg, Decl: fd, Recv: recvIdent(fd)}
				ann.apply(fi)
				prog.funcs[key] = fi
				order = append(order, fi)
			}
			prog.issues[pkg] = append(prog.issues[pkg], ann.leftover()...)
		}
	}
	// Fixpoint over callee-dependent facts. Merges are monotone (bools
	// or-ed, fence counts maxed), so the iteration converges; a fence
	// count still growing once the round budget for acyclic propagation
	// is spent sits on (or downstream of) a recursive cycle that fences,
	// and is pinned to fenceInf. Converged functions keep their exact
	// counts.
	const acyclicRounds = 25
	for round := 0; round < 2*acyclicRounds; round++ {
		changed := false
		var growing []*FuncInfo
		for _, fi := range order {
			next := summarize(prog, fi)
			merged := mergeSummary(fi.Sum, next)
			if merged.propagated() != fi.Sum.propagated() {
				changed = true
			}
			if merged.MaxFences != fi.Sum.MaxFences {
				growing = append(growing, fi)
			}
			fi.Sum = merged
		}
		if !changed {
			break
		}
		if round == acyclicRounds {
			for _, fi := range growing {
				fi.Sum.MaxFences = fenceInf
			}
		}
	}
	return prog
}

func mergeSummary(old, next Summary) Summary {
	next.StoresUnflushed = next.StoresUnflushed || old.StoresUnflushed
	next.UnfencedFlush = next.UnfencedFlush || old.UnfencedFlush
	next.CoveredFlush = next.CoveredFlush || old.CoveredFlush
	next.HasFence = next.HasFence || old.HasFence
	next.Publishes = next.Publishes || old.Publishes
	if old.MinFences > next.MinFences {
		next.MinFences = old.MinFences
	}
	if old.MaxFences > next.MaxFences {
		next.MaxFences = old.MaxFences
	}
	return next
}

func recvIdent(decl *ast.FuncDecl) string {
	if decl.Recv == nil || len(decl.Recv.List) == 0 || len(decl.Recv.List[0].Names) == 0 {
		return ""
	}
	return decl.Recv.List[0].Names[0].Name
}

// summarize computes fi's summary from its body and the current
// summaries of its callees.
func summarize(prog *Program, fi *FuncInfo) Summary {
	scope := funcScope{name: fi.Decl.Name.Name, body: fi.Decl.Body, decl: fi.Decl}
	events := persistEvents(prog, fi.Pkg, scope)
	var s Summary

	ignores := prog.ignores[fileOf(fi.Pkg, fi.Decl)]
	suppressedAt := func(pos token.Pos, analyzer string) bool {
		line := fi.Pkg.Fset.Position(pos).Line
		for _, l := range []int{line, line - 1} {
			for _, ig := range ignores[l] {
				if ig.analyzers["*"] || ig.analyzers[analyzer] {
					return true
				}
			}
		}
		return false
	}

	for i, ev := range events {
		switch ev.kind {
		case pevStore:
			covered := false
			for _, later := range events[i+1:] {
				if later.kind == pevFlush || later.kind == pevCoveredFlush {
					covered = true
					break
				}
			}
			if !covered && !suppressedAt(ev.pos, "persistorder") {
				s.StoresUnflushed = true
			}
		case pevFlush:
			fenced := false
			for _, later := range events[i+1:] {
				if later.kind == pevFence {
					fenced = true
					break
				}
			}
			if fenced {
				s.CoveredFlush = true
			} else if !suppressedAt(ev.pos, "fencepair") {
				s.UnfencedFlush = true
			}
		case pevCoveredFlush:
			s.CoveredFlush = true
		case pevFence:
			s.HasFence = true
		case pevPublish:
			s.Publishes = true
		}
	}

	fc := fenceCount(prog, fi.Pkg, fi.Decl.Body)
	s.MinFences, s.MaxFences = fc.min, fc.max

	s.Releases = pureReleases(fi)
	s.Allocs = allocSites(fi.Pkg, fi.Decl.Body)
	s.Calls = callSites(prog, fi.Pkg, fi.Decl.Body)
	return s
}

func fileOf(pkg *Package, decl *ast.FuncDecl) *ast.File {
	for _, f := range pkg.Files {
		if f.AST.FileStart <= decl.Pos() && decl.Pos() <= f.AST.FileEnd {
			return f.AST
		}
	}
	return nil
}

// pureReleases collects the unlocks of fi's body that have no prior
// matching lock — the signature of the Resume half of a pause gate.
// Paths are receiver-normalized ("s.mu" in a method with receiver s
// becomes "@.mu").
func pureReleases(fi *FuncInfo) []lockKey {
	var locks, unlocks []lockEvent
	walkScope(fi.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, name := callee(call)
		if recv == nil {
			return true
		}
		path := exprPath(recv)
		if path == "" {
			return true
		}
		switch name {
		case "Lock", "RLock":
			locks = append(locks, lockEvent{call.Pos(), path, name == "RLock"})
		case "Unlock", "RUnlock":
			unlocks = append(unlocks, lockEvent{call.Pos(), path, name == "RUnlock"})
		}
		return true
	})
	var rel []lockKey
	for _, u := range unlocks {
		prior := false
		for _, l := range locks {
			if l.path == u.path && l.read == u.read && l.pos < u.pos {
				prior = true
				break
			}
		}
		if !prior {
			rel = append(rel, lockKeyFor(u.path, u.read, fi.Recv, fi.Decl))
		}
	}
	return rel
}

// lockKeyFor builds the summary key for a lock path seen inside decl:
// receiver-normalized, and type-scoped when the path goes through the
// receiver.
func lockKeyFor(path string, read bool, recv string, decl *ast.FuncDecl) lockKey {
	norm := normalizeLockPath(path, recv)
	if strings.HasPrefix(norm, "@") {
		return lockKey{norm, read, recvTypeName(decl)}
	}
	return lockKey{norm, read, ""}
}

// recvTypeName returns the name of decl's receiver type ("" for plain
// functions), unwrapping pointers and type parameters.
func recvTypeName(decl *ast.FuncDecl) string {
	if decl == nil || decl.Recv == nil || len(decl.Recv.List) == 0 {
		return ""
	}
	t := decl.Recv.List[0].Type
	for {
		switch u := t.(type) {
		case *ast.StarExpr:
			t = u.X
		case *ast.IndexExpr:
			t = u.X
		case *ast.IndexListExpr:
			t = u.X
		case *ast.ParenExpr:
			t = u.X
		case *ast.Ident:
			return u.Name
		default:
			return ""
		}
	}
}

// normalizeLockPath rewrites a leading receiver identifier to "@".
func normalizeLockPath(path, recv string) string {
	if recv == "" {
		return path
	}
	if path == recv {
		return "@"
	}
	if strings.HasPrefix(path, recv+".") {
		return "@" + path[len(recv):]
	}
	return path
}

// callSites records fi's statically resolved calls into the module.
func callSites(prog *Program, pkg *Package, body *ast.BlockStmt) []CallSite {
	var calls []CallSite
	walkScope(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if cfi := prog.FuncOf(pkg, call); cfi != nil {
			calls = append(calls, CallSite{call.Pos(), cfi.Key})
		}
		return true
	})
	return calls
}

// --- Persist event stream -------------------------------------------

// Event kinds, in the vocabulary the persist analyzers share:
//
//	pevStore        a Device.Store/Store8/StoreRun (or a callee's
//	                unflushed one)
//	pevFlush        a write-back this function must fence (own-batch
//	                Flush / FlushRange, or a callee's unfenced one)
//	pevCoveredFlush a write-back carrying no fence obligation upward: a
//	                flush into a batch owned elsewhere, a Persist's
//	                flush half, or a callee's already-fenced flush
//	pevFence        a persist barrier (Fence, Persist's fence half, or
//	                a callee's)
//	pevPublish      a sync/atomic store-like operation
//	pevEscape       a locally created batch handed to other code
//	                (flush-like evidence for the fence-pairing rule)
const (
	pevStore = iota
	pevFlush
	pevCoveredFlush
	pevFence
	pevPublish
	pevEscape
)

type pEvent struct {
	pos  token.Pos
	kind int
	via  string // callee name for call-derived events, "" for direct ops
}

// persistEvents collects scope's persist-relevant events in source
// order, expanding each statically resolved call into the events its
// summary exports. Calls into the blackbox recorder export nothing
// (its split-barrier API is checked on its own terms); pmem operations
// are matched intrinsically.
func persistEvents(prog *Program, pkg *Package, scope funcScope) []pEvent {
	local := localBatchObjs(pkg, scope)
	var events []pEvent
	walkScope(scope.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch {
		case isDeviceCall(pkg, call, "Store", "Store8", "StoreRun"):
			events = append(events, pEvent{call.Pos(), pevStore, ""})
		case isDeviceCall(pkg, call, "FlushRange"):
			events = append(events, pEvent{call.Pos(), pevFlush, ""})
		case isBatchCall(pkg, call, "Flush"):
			kind := pevFlush
			if isForeignBatchCall(pkg, call, local) {
				// Flushing a shard into a batch owned elsewhere: the
				// owner fences at the join barrier.
				kind = pevCoveredFlush
			}
			events = append(events, pEvent{call.Pos(), kind, ""})
		case isDeviceCall(pkg, call, "Persist"):
			// Self-contained flush+fence: covers earlier stores and
			// orders earlier flushes, imposes nothing on the caller.
			events = append(events,
				pEvent{call.Pos(), pevCoveredFlush, ""},
				pEvent{call.Pos(), pevFence, ""})
		case isDeviceCall(pkg, call, "Fence") || isBatchCall(pkg, call, "Fence"):
			events = append(events, pEvent{call.Pos(), pevFence, ""})
		case isAtomicPublish(pkg, call):
			events = append(events, pEvent{call.Pos(), pevPublish, ""})
		default:
			if cfi := prog.FuncOf(pkg, call); cfi != nil && !isBlackboxPackage(cfi.Pkg) {
				events = append(events, callEvents(cfi, call.Pos())...)
			}
		}
		return true
	})
	for _, pos := range batchEscapes(pkg, scope, local) {
		events = append(events, pEvent{pos, pevEscape, ""})
	}
	sortEvents(events)
	return events
}

// callEvents expands one resolved call into the ordered events its
// summary exports: covered flushes and fences first (the callee closed
// them itself), then trailing obligations, then publishes.
func callEvents(cfi *FuncInfo, pos token.Pos) []pEvent {
	name := cfi.Decl.Name.Name
	s := cfi.Sum
	var evs []pEvent
	if s.CoveredFlush {
		evs = append(evs, pEvent{pos, pevCoveredFlush, name})
	}
	if s.HasFence {
		evs = append(evs, pEvent{pos, pevFence, name})
	}
	if s.UnfencedFlush {
		evs = append(evs, pEvent{pos, pevFlush, name})
	}
	if s.StoresUnflushed {
		evs = append(evs, pEvent{pos, pevStore, name})
	}
	if s.Publishes {
		evs = append(evs, pEvent{pos, pevPublish, name})
	}
	return evs
}

func sortEvents(events []pEvent) {
	// Stable by position; events sharing a position (one call's
	// expansion) keep their emission order.
	for i := 1; i < len(events); i++ {
		for j := i; j > 0 && events[j-1].pos > events[j].pos; j-- {
			events[j-1], events[j] = events[j], events[j-1]
		}
	}
}

// --- Fence counting -------------------------------------------------

// fc is a (min, max) fence-count pair along the paths of a construct.
type fc struct{ min, max int }

func satAdd(a, b int) int {
	s := a + b
	if s > fenceInf {
		return fenceInf
	}
	return s
}

func fcSeq(a, b fc) fc { return fc{satAdd(a.min, b.min), satAdd(a.max, b.max)} }

func fcAlt(a, b fc) fc {
	lo, hi := a.min, a.max
	if b.min < lo {
		lo = b.min
	}
	if b.max > hi {
		hi = b.max
	}
	return fc{lo, hi}
}

// fenceCount computes the fences a single activation of body executes:
// sequential statements add, branches take the per-path min/max, and a
// loop body counts once — the budget bounds the barriers per activation
// of the body, which is the per-message cost a hot loop pays. Calls
// add the callee's summarized counts; unresolvable calls (interface
// dispatch, func values) add nothing and are the analysis boundary.
func fenceCount(prog *Program, pkg *Package, body *ast.BlockStmt) fc {
	var stmtFC func(ast.Stmt) fc
	var exprFC func(ast.Node) fc

	exprFC = func(n ast.Node) fc {
		total := fc{}
		if n == nil {
			return total
		}
		ast.Inspect(n, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok {
				return false // a closure's fences run when it is called
			}
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch {
			case isDeviceCall(pkg, call, "Fence", "Persist") || isBatchCall(pkg, call, "Fence"):
				total = fcSeq(total, fc{1, 1})
			default:
				if cfi := prog.FuncOf(pkg, call); cfi != nil {
					total = fcSeq(total, fc{cfi.Sum.MinFences, cfi.Sum.MaxFences})
				}
			}
			return true
		})
		return total
	}

	blockFC := func(stmts []ast.Stmt) fc {
		total := fc{}
		for _, s := range stmts {
			total = fcSeq(total, stmtFC(s))
		}
		return total
	}

	stmtFC = func(s ast.Stmt) fc {
		switch s := s.(type) {
		case nil:
			return fc{}
		case *ast.BlockStmt:
			return blockFC(s.List)
		case *ast.IfStmt:
			total := fcSeq(stmtFC(s.Init), exprFC(s.Cond))
			alt := fc{}
			if s.Else != nil {
				alt = stmtFC(s.Else)
			}
			return fcSeq(total, fcAlt(stmtFC(s.Body), alt))
		case *ast.ForStmt:
			total := stmtFC(s.Init)
			once := fcSeq(fcSeq(exprFC(s.Cond), stmtFC(s.Post)), stmtFC(s.Body))
			return fcSeq(total, fc{0, once.max})
		case *ast.RangeStmt:
			total := exprFC(s.X)
			return fcSeq(total, fc{0, stmtFC(s.Body).max})
		case *ast.SwitchStmt:
			total := fcSeq(stmtFC(s.Init), exprFC(s.Tag))
			return fcSeq(total, caseAlt(s.Body, blockFC, true))
		case *ast.TypeSwitchStmt:
			total := fcSeq(stmtFC(s.Init), stmtFC(s.Assign))
			return fcSeq(total, caseAlt(s.Body, blockFC, true))
		case *ast.SelectStmt:
			return caseAlt(s.Body, blockFC, false)
		case *ast.LabeledStmt:
			return stmtFC(s.Stmt)
		default:
			// Leaf statements (expressions, assignments, returns, defers,
			// go, sends, declarations) hold no nested statements outside
			// FuncLits; count every call they evaluate. A defer's call
			// runs at exit but still within this activation; a go
			// statement's fences are charged here conservatively.
			return exprFC(s)
		}
	}

	return blockFC(body.List)
}

// caseAlt folds the min/max over a switch/select clause list. withDflt
// adds an implicit empty path when no default clause exists.
func caseAlt(body *ast.BlockStmt, blockFC func([]ast.Stmt) fc, withDflt bool) fc {
	var alts []fc
	hasDefault := false
	for _, c := range body.List {
		switch c := c.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			alts = append(alts, blockFC(c.Body))
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			}
			cl := fc{}
			if c.Comm != nil {
				// The communication op itself cannot fence, but its
				// operands may contain calls.
				cl = blockFC([]ast.Stmt{c.Comm})
			}
			alts = append(alts, fcSeq(cl, blockFC(c.Body)))
		}
	}
	if len(alts) == 0 {
		return fc{}
	}
	total := alts[0]
	for _, a := range alts[1:] {
		total = fcAlt(total, a)
	}
	if withDflt && !hasDefault {
		total = fcAlt(total, fc{})
	}
	return total
}

// --- Hot-path annotations -------------------------------------------

const (
	budgetPrefix  = "//dudelint:fencebudget"
	noallocPrefix = "//dudelint:noalloc"
)

type annotation struct {
	pos      token.Pos
	line     int
	analyzer string
	budget   int
	bad      string // malformed-directive message, "" when well-formed
	attached bool
}

type fileAnnotations struct {
	pkg  *Package
	anns []*annotation
}

// annotationsForFile parses every fencebudget/noalloc directive in f.
func annotationsForFile(pkg *Package, f *File) *fileAnnotations {
	fa := &fileAnnotations{pkg: pkg}
	for _, cg := range f.AST.Comments {
		for _, c := range cg.List {
			var a *annotation
			switch {
			case strings.HasPrefix(c.Text, budgetPrefix):
				a = &annotation{pos: c.Pos(), analyzer: "fencebudget"}
				rest := strings.Fields(strings.TrimPrefix(c.Text, budgetPrefix))
				if len(rest) != 1 {
					a.bad = "malformed fence budget (want //dudelint:fencebudget <N>)"
				} else if n, err := strconv.Atoi(rest[0]); err != nil || n < 0 {
					a.bad = fmt.Sprintf("malformed fence budget %q (want a non-negative integer)", rest[0])
				} else {
					a.budget = n
				}
			case strings.HasPrefix(c.Text, noallocPrefix):
				a = &annotation{pos: c.Pos(), analyzer: "noalloc"}
				if rest := strings.TrimPrefix(c.Text, noallocPrefix); strings.TrimSpace(rest) != "" {
					a.bad = "malformed noalloc annotation (want a bare //dudelint:noalloc)"
				}
			default:
				continue
			}
			a.line = pkg.Fset.Position(a.pos).Line
			fa.anns = append(fa.anns, a)
		}
	}
	return fa
}

// apply attaches the directives written in fi's doc comment (or on any
// line between the doc comment and the func keyword) to fi.
func (fa *fileAnnotations) apply(fi *FuncInfo) {
	if fa == nil || len(fa.anns) == 0 {
		return
	}
	start := fa.pkg.Fset.Position(fi.Decl.Pos()).Line
	if fi.Decl.Doc != nil {
		start = fa.pkg.Fset.Position(fi.Decl.Doc.Pos()).Line
	}
	end := fa.pkg.Fset.Position(fi.Decl.Pos()).Line
	for _, a := range fa.anns {
		if a.line < start || a.line > end {
			continue
		}
		a.attached = true
		if a.bad != "" {
			continue
		}
		switch a.analyzer {
		case "fencebudget":
			fi.FenceBudget = a.budget
			fi.HasBudget = true
		case "noalloc":
			fi.NoAlloc = true
		}
	}
}

// leftover returns the issues to report: malformed directives and
// directives attached to no function declaration.
func (fa *fileAnnotations) leftover() []annotIssue {
	var issues []annotIssue
	for _, a := range fa.anns {
		switch {
		case a.bad != "":
			issues = append(issues, annotIssue{a.pos, a.analyzer, a.bad})
		case !a.attached:
			issues = append(issues, annotIssue{a.pos, a.analyzer,
				fmt.Sprintf("//dudelint:%s directive is attached to no function declaration", a.analyzer)})
		}
	}
	return issues
}
