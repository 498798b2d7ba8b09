package lint

import (
	"go/token"
	"strings"
)

// analyzerPersistOrder encodes the core durability invariant of the
// paper (§2.1, §3.4): a store to persistent memory is durable only
// after its cache lines are written back (FlushRange / Persist /
// Batch.Flush) and ordered by a fence. Within each function body it
// checks two things, in statement order:
//
//  1. every pmem.Device Store/Store8/StoreRun is eventually covered by a
//     flush-like call before the function returns, and
//  2. no atomic "publish" (a sync/atomic store such as advancing the
//     durable ID) happens between a device store and its first flush —
//     publishing a commit marker before the data is flushed is exactly
//     the bug class that survives testing and only fails under Crash().
//
// The event stream is interprocedural: every statically resolved call
// expands into the persist effects its summary exports (see
// summary.go), so a store whose flush lives in a helper is covered,
// and a helper's trailing unflushed store or atomic publish surfaces
// at the call site. Functions that intentionally defer durability to
// their caller (e.g. an undo-log Tx.Store whose flush happens at
// commit) carry a //dudelint:ignore persistorder comment with the
// justification; the suppression also stops the obligation from
// propagating to callers. The pmem package itself — the substrate that
// defines Store and Flush — the blackbox flight recorder (a second
// substrate: Stamp stores a slot that a later Sync writes back, by
// design) and test files are exempt.
//
// A helper that stores a run and flushes it into a caller's batch (the
// Reproduce path's applyRuns) needs no suppression: it satisfies rule 1
// (Batch.Flush covers the stores regardless of who owns the batch — the
// owner fences), and rule 2 still fires if the helper publishes
// completion atomically before its flushes, which is the crash bug the
// barrier exists to prevent.
var analyzerPersistOrder = &Analyzer{
	Name: "persistorder",
	Doc:  "pmem stores must be flushed before return and before any atomic publish",
	Run:  runPersistOrder,
}

func runPersistOrder(pass *Pass) {
	if pkg := strings.TrimSuffix(pass.Pkg.Name, "_test"); pkg == "pmem" || pkg == "blackbox" {
		return
	}
	for _, f := range pass.Pkg.Files {
		if f.Test {
			continue
		}
		for _, scope := range funcScopes(f.AST) {
			checkPersistOrderScope(pass, scope)
		}
	}
}

func checkPersistOrderScope(pass *Pass, scope funcScope) {
	events := persistEvents(pass.Prog, pass.Pkg, scope)
	for i, st := range events {
		if st.kind != pevStore {
			continue
		}
		var firstFlush, firstPublish token.Pos
		for _, e := range events[i+1:] {
			switch e.kind {
			case pevFlush, pevCoveredFlush:
				if firstFlush == token.NoPos {
					firstFlush = e.pos
				}
			case pevPublish:
				if firstPublish == token.NoPos {
					firstPublish = e.pos
				}
			}
		}
		what := "store to persistent memory in " + scope.name
		if st.via != "" {
			what = "store to persistent memory left unflushed by the call to " + st.via + " in " + scope.name
		}
		switch {
		case firstFlush == token.NoPos:
			pass.Reportf(st.pos,
				"%s is never covered by a FlushRange/Persist/Batch.Flush before the function returns; it is lost on Crash()",
				what)
		case firstPublish != token.NoPos && firstPublish < firstFlush:
			pub := pass.Pkg.Fset.Position(firstPublish)
			pass.Reportf(st.pos,
				"%s is published by an atomic store (line %d) before being flushed; a crash between them breaks the durable-ID invariant",
				what, pub.Line)
		}
	}
}
