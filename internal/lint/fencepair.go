package lint

import (
	"strings"
)

// analyzerFencePair checks that write-backs and persist barriers come
// in pairs (paper §2.1: CLWB ... SFENCE). Within each function body, in
// statement order:
//
//   - a Device.Fence or Batch.Fence with no preceding flush-like call
//     is a wasted barrier (it orders nothing this function wrote back);
//   - a FlushRange or Batch.Flush never followed by a fence on any
//     textual path out of the function leaves the write-back unordered,
//     i.e. not durable.
//
// Device.Persist is a self-contained flush+fence: it imposes no
// obligation of its own, and its fence half closes any earlier flush
// (a fence orders every prior write-back, whoever issued it).
//
// The event stream is interprocedural (see summary.go): a statically
// resolved call contributes the flushes and fences its summary
// exports, so a helper that performs the closing fence satisfies the
// caller's flush, a self-contained helper like AppendGroup neither
// wastes nor demands a barrier, and a helper's trailing unfenced flush
// becomes an obligation at the call site. A //dudelint:ignore on the
// helper's flush stops the obligation from propagating.
//
// Batch ownership splits the rules between a batch's owner and the
// code it hands the batch to: a Batch.Flush on a batch the function did
// not create (a parameter, struct field, or channel-received value —
// e.g. dudetm's applyRuns flushing a replay run into the Reproduce
// loop's batch) is exempt from the following-fence rule, because the
// fence is the batch owner's duty; conversely, handing a locally created batch
// to other code (as a call argument, composite-literal field, or
// channel send) counts as flush-like evidence, so the owner's fence
// after the join is not a "wasted barrier". The pmem package itself,
// the blackbox flight recorder (a second substrate: Stamp stores a slot
// that a later Sync writes back and fences) and test files (which deliberately
// leave data unflushed to exercise Crash()) are exempt.
var analyzerFencePair = &Analyzer{
	Name: "fencepair",
	Doc:  "every flush needs a following fence; every fence needs a preceding flush",
	Run:  runFencePair,
}

func runFencePair(pass *Pass) {
	if pkg := strings.TrimSuffix(pass.Pkg.Name, "_test"); pkg == "pmem" || pkg == "blackbox" {
		return
	}
	for _, f := range pass.Pkg.Files {
		if f.Test {
			continue
		}
		for _, scope := range funcScopes(f.AST) {
			checkFencePairScope(pass, scope)
		}
	}
}

func checkFencePairScope(pass *Pass, scope funcScope) {
	events := persistEvents(pass.Prog, pass.Pkg, scope)
	for i, ev := range events {
		switch ev.kind {
		case pevFence:
			if ev.via != "" {
				// A callee's fence orders the callee's own flushes; the
				// wasted-barrier rule is about fences this function
				// issues itself.
				continue
			}
			preceded := false
			for _, fl := range events[:i] {
				if fl.kind == pevFlush || fl.kind == pevCoveredFlush || fl.kind == pevEscape {
					preceded = true
					break
				}
			}
			if !preceded {
				pass.Reportf(ev.pos,
					"fence in %s has no preceding flush in this function: a wasted persist barrier (if the flushes happen in a caller, suppress with a reason)",
					scope.name)
			}
		case pevFlush:
			followed := false
			for _, fe := range events[i+1:] {
				if fe.kind == pevFence {
					followed = true
					break
				}
			}
			if followed {
				continue
			}
			if ev.via != "" {
				pass.Reportf(ev.pos,
					"the call to %s in %s leaves a flush that is never followed by a fence before the function returns: the write-back is unordered and not durable",
					ev.via, scope.name)
			} else {
				pass.Reportf(ev.pos,
					"flush in %s is never followed by a fence before the function returns: the write-back is unordered and not durable",
					scope.name)
			}
		}
	}
}
