package dudetm

import (
	"fmt"
	"strings"
	"time"

	"dudetm/internal/obs/blackbox"
	"dudetm/internal/pmem"
	"dudetm/internal/redolog"
)

// TidRange is an inclusive transaction-ID range (one persist group).
type TidRange struct {
	MinTid uint64 `json:"min_tid"`
	MaxTid uint64 `json:"max_tid"`
}

// BBEvent is one decoded flight-recorder stamp, rendered for reports.
// A/B/C are the kind-specific operands (see blackbox.Kind).
type BBEvent struct {
	Seq  uint64 `json:"seq"`
	Kind string `json:"kind"`
	At   int64  `json:"at_unix_nano"`
	A    uint64 `json:"a"`
	B    uint64 `json:"b"`
	C    uint64 `json:"c"`
}

// eventTail bounds the event dump attached to a CrashReport.
const eventTail = 64

// CrashReport is the post-crash forensic summary of a pool image: what
// the log region proves was durable or in flight, and what the flight
// recorder says the pipeline was doing when power failed. Work sealed
// but not yet appending leaves no durable trace — it was never
// acknowledged either way.
type CrashReport struct {
	// LogFrontier is the durable frontier recomputable from the log
	// image alone: the largest ID reachable from Anchor through a
	// gap-free chain of live groups. Recovery restores exactly this.
	LogFrontier uint64 `json:"log_frontier"`
	// Anchor is the reproduce watermark the last recycle persisted.
	Anchor uint64 `json:"anchor"`
	// InFlightFences lists the persist barriers the crash interrupted
	// mid-append: the tid range each torn log tail claims, when the
	// header's tid words reached media (redolog.ScanResult.TornMinTid).
	// A record that survived whole is its own persist-fence evidence and
	// counts under LiveGroups instead.
	InFlightFences []TidRange `json:"in_flight_fences,omitempty"`
	// TornBlackboxSlots counts recorder slots failing their CRC.
	TornBlackboxSlots int `json:"torn_blackbox_slots"`
	// TornLogs counts logs whose scan ended at a half-written record
	// (as opposed to a clean end of the durable prefix).
	TornLogs int `json:"torn_logs"`
	// LiveGroups and LiveEntries size the surviving, unrecycled log
	// content recovery has to consider.
	LiveGroups  int `json:"live_groups"`
	LiveEntries int `json:"live_entries"`
	// Events is the tail of the flight recorder from the current boot
	// epoch, oldest first.
	Events []BBEvent `json:"events,omitempty"`
}

// String renders the report as a multi-line diagnostic dump.
func (r *CrashReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "crash report: log frontier %d (anchor %d)", r.LogFrontier, r.Anchor)
	fmt.Fprintf(&b, "\n  live log content: %d groups, %d entries; %d torn log(s), %d torn recorder slot(s)",
		r.LiveGroups, r.LiveEntries, r.TornLogs, r.TornBlackboxSlots)
	for _, g := range r.InFlightFences {
		fmt.Fprintf(&b, "\n  fence in flight at crash: tids [%d,%d]", g.MinTid, g.MaxTid)
	}
	for _, e := range r.Events {
		fmt.Fprintf(&b, "\n  #%-6d %-13s a=%d b=%d c=%d at %s",
			e.Seq, e.Kind, e.A, e.B, e.C, time.Unix(0, e.At).UTC().Format(time.RFC3339Nano))
	}
	return b.String()
}

// scanPool scans every persistent log of the pool at lay, returning the
// per-log scan results, the replay anchor (the largest persisted
// reproduce watermark) and every live group.
func scanPool(dev *pmem.Device, lay layout) ([]redolog.ScanResult, uint64, []redolog.Group, error) {
	results := make([]redolog.ScanResult, lay.nlogs)
	var anchor uint64
	var groups []redolog.Group
	for i := range results {
		res, err := redolog.Scan(dev, lay.metaAddr(i), lay.logAddr(i), lay.logSize)
		if err != nil {
			return nil, 0, nil, err
		}
		results[i] = res
		if res.ReproTid > anchor {
			anchor = res.ReproTid
		}
		groups = append(groups, res.Groups...)
	}
	return results, anchor, groups, nil
}

// buildCrashReport combines the log-scan evidence with the decoded
// flight-recorder stamps. A fenced log record is its own persist-fence
// stamp and a torn tail is the in-flight append, so per-group findings
// come from the scan. Only stamps from the current boot epoch are
// reported: the ring keeps the newest stamps, so everything after the
// last surviving boot stamp (or everything, when the boot itself was
// lapped away) belongs to the epoch that crashed — earlier epochs may
// reference transaction IDs recovery discarded and this mount reused.
func buildCrashReport(dev *pmem.Device, lay layout, results []redolog.ScanResult,
	anchor, frontier uint64, groups []redolog.Group) *CrashReport {
	rep := &CrashReport{
		LogFrontier: frontier,
		Anchor:      anchor,
	}
	for _, res := range results {
		if res.Torn {
			rep.TornLogs++
		}
		// The frontier guard only matters for garbage that passed the
		// scanner's sanity check: a genuine torn range was never durable.
		if res.TornMinTid > frontier {
			rep.InFlightFences = append(rep.InFlightFences, TidRange{res.TornMinTid, res.TornMaxTid})
		}
	}
	rep.LiveGroups = len(groups)
	for _, g := range groups {
		rep.LiveEntries += len(g.Entries)
	}
	recs, torn, err := blackbox.Decode(dev, lay.bbOff)
	if err != nil {
		// A destroyed ring is itself a finding, not a fatal condition:
		// the log-side evidence stands on its own.
		rep.TornBlackboxSlots = int(lay.bbEntries)
		return rep
	}
	rep.TornBlackboxSlots = torn

	// Trim to the current boot epoch.
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].Kind == blackbox.KindBoot {
			recs = recs[i:]
			break
		}
	}

	if n := len(recs); n > eventTail {
		recs = recs[n-eventTail:]
	}
	rep.Events = make([]BBEvent, len(recs))
	for i, rec := range recs {
		rep.Events[i] = BBEvent{
			Seq:  rec.Seq,
			Kind: rec.Kind.String(),
			At:   rec.At,
			A:    rec.A,
			B:    rec.B,
			C:    rec.C,
		}
	}
	return rep
}

// Forensics decodes a pool image — typically a crash image from Crash,
// a server Kill drill, or a device file on disk — into a CrashReport
// without mounting or modifying it.
func Forensics(dev *pmem.Device) (*CrashReport, error) {
	lay, err := readHeader(dev)
	if err != nil {
		return nil, err
	}
	results, anchor, groups, err := scanPool(dev, lay)
	if err != nil {
		return nil, err
	}
	frontier := denseFrontier(anchor, groups)
	return buildCrashReport(dev, lay, results, anchor, frontier, groups), nil
}

// AuditRecovery cross-checks an acknowledged-durable transaction ID
// against the recovered state: every ID acknowledged as durable before
// the crash must be at or below the recovered durable frontier. A
// failure means the durability contract was broken, and the error
// carries the forensic report for the post-mortem.
func (s *System) AuditRecovery(ackedTid uint64) error {
	durable := s.durable.Load()
	if durable >= ackedTid {
		return nil
	}
	msg := fmt.Sprintf("dudetm: durability audit failed: acked tid %d beyond recovered durable frontier %d",
		ackedTid, durable)
	if s.recov.Report != nil {
		msg += "\n" + s.recov.Report.String()
	}
	return fmt.Errorf("%s", msg)
}
