package dudetm

import (
	"fmt"
	"log"
	"strings"
	"time"

	"dudetm/internal/obs"
	"dudetm/internal/obs/blackbox"
)

// StallReport is the watchdog's diagnostic dump for one stall episode:
// a frontier with work queued behind it failed to advance across two
// consecutive watchdog samples.
type StallReport struct {
	// Stage is the stalled stage, "persist" or "reproduce".
	Stage string
	// Interval is the watchdog sampling interval the frontier sat
	// still across.
	Interval time.Duration
	// Clock, Durable and Reproduced are the pipeline frontiers at
	// detection time.
	Clock, Durable, Reproduced uint64
	// PersistQueue and ReproQueue are the stage backlogs (sealed
	// groups awaiting append; persisted groups awaiting replay).
	PersistQueue, ReproQueue int64
	// Trace is the tail of the lifecycle trace (the sample table) —
	// the last stamps the pipeline managed before it stopped moving.
	Trace []obs.Record
}

// String renders the report as a multi-line diagnostic dump.
func (r StallReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s stage stalled for %v: clock=%d durable=%d reproduced=%d persistQ=%d reproQ=%d",
		r.Stage, r.Interval, r.Clock, r.Durable, r.Reproduced, r.PersistQueue, r.ReproQueue)
	for _, rec := range r.Trace {
		fmt.Fprintf(&b, "\n  %-15s tids [%d,%d] at +%v", rec.Kind, rec.MinTid, rec.MaxTid, time.Duration(rec.At))
	}
	return b.String()
}

// watchSample is one watchdog observation of the pipeline frontiers and
// the states that legitimately freeze them.
type watchSample struct {
	valid                      bool
	clock, durable, reproduced uint64
	persistPaused, reproPaused bool
	quiet                      bool // stopping or halted: shutdown, not a stall
}

func (s *System) sampleWatch() watchSample {
	return watchSample{
		valid:         true,
		clock:         s.engine.Clock(),
		durable:       s.durable.Load(),
		reproduced:    s.reproduced.Load(),
		persistPaused: s.persistPaused.Load(),
		reproPaused:   s.reproPaused.Load(),
		quiet:         s.stopping.Load() || s.halted.Load(),
	}
}

// stallVerdict is the watchdog's pure decision function: a stage is
// stalled when its input frontier was ahead of its output frontier at
// both samples and the output frontier did not move between them.
// Operator pauses suppress the verdict — a reproduce verdict is also
// suppressed while Persist is paused, because the pause freezes the
// upstream feed. Shutdown (stopping/halted) at either sample
// suppresses everything. The residual-backlog problem — a resumed
// stage is not guaranteed to drain the work that piled up during the
// pause within one tick — is handled by the caller's post-pause hold
// (see watchdogLoop), not here.
func stallVerdict(prev, cur watchSample) (persist, repro bool) {
	if !prev.valid || cur.quiet || prev.quiet {
		return false, false
	}
	pPaused := cur.persistPaused || prev.persistPaused
	rPaused := cur.reproPaused || prev.reproPaused || pPaused
	persist = !pPaused &&
		prev.clock > prev.durable && cur.clock > cur.durable &&
		cur.durable == prev.durable
	repro = !rPaused &&
		prev.durable > prev.reproduced && cur.durable > cur.reproduced &&
		cur.reproduced == prev.reproduced
	return persist, repro
}

// watchdogLoop samples the pipeline every interval and reports a stall
// once per stall episode (the report repeats only after the frontier
// moves and sticks again, not on every tick of one long stall).
func (s *System) watchdogLoop(interval time.Duration) {
	defer s.wg.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	var prev watchSample
	persistFiring, reproFiring := false, false
	// Post-pause hold: a pause freezes a frontier with work queued
	// behind it — the exact shape of a stall — and the backlog it
	// leaves is not guaranteed to drain within one tick of the resume
	// (nor within any fixed number: one slow group mid-drain re-freezes
	// the frontier). A pause therefore arms a hold on the stage's
	// verdict (persist pause also holds reproduce, whose feed it froze)
	// that is released only when the stage catches its input frontier —
	// the pause's backlog is fully cleared. The trade: a stage wedged
	// during or just after a pause drill is reported only after it
	// catches up once and sticks again.
	persistHold, reproHold := false, false
	for {
		select {
		case <-s.watchStop:
			return
		case <-ticker.C:
		}
		cur := s.sampleWatch()
		if cur.durable >= cur.clock {
			persistHold = false
		}
		if cur.reproduced >= cur.durable {
			reproHold = false
		}
		if cur.persistPaused {
			persistHold, reproHold = true, true
		}
		if cur.reproPaused {
			reproHold = true
		}
		p, r := stallVerdict(prev, cur)
		p = p && !persistHold
		r = r && !reproHold
		if p && !persistFiring {
			s.fireStall("persist", interval, cur)
		}
		if r && !reproFiring {
			s.fireStall("reproduce", interval, cur)
		}
		persistFiring, reproFiring = p, r
		prev = cur
	}
}

// stallTraceTail bounds the trace dump attached to a stall report.
const stallTraceTail = 32

func (s *System) fireStall(stage string, interval time.Duration, cur watchSample) {
	rep := StallReport{
		Stage:        stage,
		Interval:     interval,
		Clock:        cur.clock,
		Durable:      cur.durable,
		Reproduced:   cur.reproduced,
		PersistQueue: max(s.pm.queue.Load(), 0),
		ReproQueue:   max(s.rm.queue.Load(), 0),
		Trace:        s.obs.TraceTail(stallTraceTail),
	}
	s.stalls.Add(1)
	s.lastStall.Store(&rep)
	// Synced immediately: if the stall ends in a crash, the stamp is the
	// forensic evidence the pipeline was wedged, not merely behind.
	stageCode := uint64(1)
	if stage == "reproduce" {
		stageCode = 2
	}
	s.bb.Stamp(blackbox.KindStall, stageCode, cur.durable, cur.reproduced)
	s.bb.Sync()
	log.Printf("dudetm: %s", rep.String())
}
