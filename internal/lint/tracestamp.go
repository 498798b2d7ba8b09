package lint

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// analyzerTraceStamp checks that observability stamps stay outside
// persist-ordered regions. A flush→fence window is the code the persist
// barrier orders: between a Device.FlushRange / Batch.Flush and the
// fence that closes it, the only stores that belong are the ones being
// made durable. A trace stamp there is wrong twice over: the stamp's
// volatile row write interleaves extra work into the measured barrier
// path (skewing the very fence-duration histogram it feeds), and a
// stamp that reads the clock mid-window brackets only part of the
// flush+fence sequence, so the recorded fence latency silently excludes
// the barrier. Stamps must bracket the window (before the first flush
// or after the closing fence), which is also where the pipeline takes
// them.
//
// The pmem and obs packages themselves and test files are exempt.
var analyzerTraceStamp = &Analyzer{
	Name: "tracestamp",
	Doc:  "trace stamps must not sit inside an open flush→fence persist window",
	Run:  runTraceStamp,
}

// obsStampMethods are the Observer calls that stamp sample rows or
// read the trace clock.
var obsStampMethods = []string{
	"Now", "Commit", "GroupSealed", "GroupIngested", "GroupPersisted", "GroupApplied",
	"DurableAdvanced", "ReproducedAdvanced", "AckedAdvanced",
	"ReplShipped", "ReplSent", "ReplicaFenced",
}

// isObsStampCall reports whether call invokes a stamp method on
// obs.Observer. Falls back to receivers spelled "obs" (or ending in
// ".obs") when types did not resolve.
func isObsStampCall(pkg *Package, call *ast.CallExpr) bool {
	recv, method := callee(call)
	if recv == nil || !contains(obsStampMethods, method) {
		return false
	}
	if t := recvType(pkg, recv); t != nil {
		return namedIn(t, "internal/obs", "Observer")
	}
	path := exprPath(recv)
	return path == "obs" || strings.HasSuffix(path, ".obs")
}

func runTraceStamp(pass *Pass) {
	name := strings.TrimSuffix(pass.Pkg.Name, "_test")
	if name == "pmem" || name == "obs" {
		return
	}
	for _, f := range pass.Pkg.Files {
		if f.Test {
			continue
		}
		for _, scope := range funcScopes(f.AST) {
			checkTraceStampScope(pass, scope)
		}
	}
}

type stampEvent struct {
	pos  token.Pos
	kind int // 0 = flush, 1 = fence, 2 = stamp
	seq  int // emission order among flush/fence events sharing a pos
	name string
}

func checkTraceStampScope(pass *Pass, scope funcScope) {
	// The flush/fence stream is the interprocedural one, so a
	// self-contained callee (flush+fence) opens and closes its window
	// atomically at the call and stamps after it stay legal, while a
	// callee's trailing unfenced flush leaves the window open across
	// the rest of the caller.
	var events []stampEvent
	for _, ev := range persistEvents(pass.Prog, pass.Pkg, scope) {
		switch ev.kind {
		case pevFlush, pevCoveredFlush:
			events = append(events, stampEvent{pos: ev.pos, kind: 0, seq: len(events)})
		case pevFence:
			events = append(events, stampEvent{pos: ev.pos, kind: 1, seq: len(events)})
		}
	}
	walkScope(scope.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isObsStampCall(pass.Pkg, call) {
			_, method := callee(call)
			events = append(events, stampEvent{pos: call.Pos(), kind: 2, name: method})
		}
		return true
	})
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].pos != events[j].pos {
			return events[i].pos < events[j].pos
		}
		return events[i].seq < events[j].seq
	})
	open := false
	for _, ev := range events {
		switch ev.kind {
		case 0:
			open = true
		case 1:
			open = false
		case 2:
			if open {
				pass.Reportf(ev.pos,
					"trace stamp %s in %s sits inside an open flush→fence window: stamp before the flush or after the fence so the barrier path stays pure and the fence measurement brackets the whole barrier",
					ev.name, scope.name)
			}
		}
	}
}
