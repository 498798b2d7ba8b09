package dudetm

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"dudetm/internal/obs/blackbox"
	"dudetm/internal/pmem"
	"dudetm/internal/redolog"
)

// crashWithDeepLog drives a system with Reproduce frozen so the crash
// image holds durable-but-unreproduced groups, and returns the image
// device plus the last acknowledged-durable transaction ID.
func crashWithDeepLog(t *testing.T, cfg Config) (dev *pmem.Device, last uint64) {
	t.Helper()
	s, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.PauseReproduce()
	for i := uint64(0); i < 30; i++ {
		tid, err := s.Run(0, func(tx *Tx) error { tx.Store(i*8, i+1); return nil })
		if err != nil {
			t.Fatal(err)
		}
		last = tid
	}
	if err := s.WaitDurable(last); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the persist loop go idle
	d := restoreInto(s)
	s.ResumeReproduce()
	s.Close()
	return d, last
}

// TestCrashReportMatchesRecoveredImage pins the tentpole acceptance
// criterion: the forensic report's durable frontier, computed from the
// crash image alone, is exactly the last acknowledged transaction and
// exactly what Recover restores, and the flight recorder holds nothing
// but the boot stamp.
func TestCrashReportMatchesRecoveredImage(t *testing.T) {
	for _, mode := range []Mode{ModeAsync, ModeSync} {
		cfg := testConfig()
		cfg.Mode = mode
		dev, last := crashWithDeepLog(t, cfg)

		rep, err := Forensics(dev)
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if rep.LogFrontier != last {
			t.Errorf("mode %d: report frontier %d, want the last acked tid %d", mode, rep.LogFrontier, last)
		}
		if len(rep.Events) != 1 || rep.Events[0].Kind != "boot" {
			t.Errorf("mode %d: recorder events %+v, want the boot stamp alone", mode, rep.Events)
		}
		if rep.LiveGroups == 0 {
			t.Errorf("mode %d: no live groups in a paused-Reproduce crash image", mode)
		}
		// Every lost-work finding must be above the recovered frontier
		// and absent from the surviving log.
		for _, g := range rep.InFlightFences {
			if g.MinTid <= rep.LogFrontier {
				t.Errorf("mode %d: lost-work range [%d,%d] at or below frontier %d",
					mode, g.MinTid, g.MaxTid, rep.LogFrontier)
			}
		}
		if !strings.Contains(rep.String(), "log frontier") {
			t.Errorf("mode %d: String() lacks the frontier line:\n%s", mode, rep)
		}

		s2, err := Recover(dev, cfg)
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if got := s2.Durable(); got != rep.LogFrontier {
			t.Errorf("mode %d: recovered durable %d != report frontier %d", mode, got, rep.LogFrontier)
		}

		rec := s2.Stats().Recovery
		if !rec.Recovered {
			t.Errorf("mode %d: Recovery.Recovered false after Recover", mode)
		}
		if rec.Report == nil || rec.Report.LogFrontier != rep.LogFrontier {
			t.Errorf("mode %d: recovery-attached report %+v disagrees with standalone forensics %d",
				mode, rec.Report, rep.LogFrontier)
		}
		if rec.GroupsReplayed == 0 || rec.EntriesReplayed == 0 || rec.BytesReplayed == 0 {
			t.Errorf("mode %d: replay counters empty: %+v", mode, rec)
		}
		if rec.LogsScanned == 0 {
			t.Errorf("mode %d: LogsScanned = 0", mode)
		}
		if rec.ScanNanos < 0 || rec.ReplayNanos < 0 || rec.RecycleNanos < 0 {
			t.Errorf("mode %d: negative phase timing: %+v", mode, rec)
		}
		s2.Close()
	}
}

// TestAuditRecovery pins both audit verdicts: an acked ID within the
// recovered frontier passes; one beyond it fails with the forensic
// report attached.
func TestAuditRecovery(t *testing.T) {
	cfg := testConfig()
	dev, last := crashWithDeepLog(t, cfg)
	s2, err := Recover(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.AuditRecovery(last); err != nil {
		t.Errorf("audit of acked tid %d failed: %v", last, err)
	}
	err = s2.AuditRecovery(s2.Durable() + 10)
	if err == nil {
		t.Fatal("audit accepted a tid beyond the recovered frontier")
	}
	if !strings.Contains(err.Error(), "crash report") {
		t.Errorf("audit failure lacks forensic context: %v", err)
	}
}

// blackboxRegion returns the recorder's share of the device traffic.
func blackboxRegion(t *testing.T, s *System) pmem.RegionStats {
	t.Helper()
	for _, r := range s.Stats().Regions {
		if r.Name == "blackbox" {
			return r
		}
	}
	t.Fatal("no blackbox region in Stats().Regions")
	return pmem.RegionStats{}
}

// TestBlackboxFenceBudget pins the steady-state overhead criterion: the
// blackbox region sees at most the boot Sync's fence no matter how many
// groups the run seals.
func TestBlackboxFenceBudget(t *testing.T) {
	cfg := testConfig()
	s, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var last uint64
	for i := uint64(0); i < 200; i++ {
		last, _ = s.Run(0, func(tx *Tx) error { tx.Store(i%32*8, i); return nil })
	}
	s.WaitDurable(last)
	bb := blackboxRegion(t, s)
	if bb.BytesFlushed == 0 {
		t.Error("the boot stamp was not written back")
	}
	if bb.Fences > 2 {
		t.Errorf("blackbox region charged %d fences for 200 transactions, want <= 2 (boot only)", bb.Fences)
	}
}

// TestBlackboxByteBudget pins the recorder's write traffic on every path
// that persists or recycles a group — the async coordinator, syncCommit,
// replica ingest and Reproduce: after the boot stamp, none. A per-group
// stamp creeping back in fails here, not in a benchmark.
func TestBlackboxByteBudget(t *testing.T) {
	type variant struct {
		name    string
		cfg     Config
		replica bool
	}
	var variants []variant
	for _, gs := range []int{1, 4} {
		cfg := testConfig()
		cfg.GroupSize = gs
		// persist1: the one Persist goroutine appends every group.
		variants = append(variants, variant{name: fmt.Sprintf("async/persist1/group%d", gs), cfg: cfg})
	}
	syncCfg := testConfig()
	syncCfg.Mode = ModeSync
	variants = append(variants,
		variant{name: "sync", cfg: syncCfg},
		variant{name: "replica", cfg: testConfig(), replica: true})

	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			v.cfg.Threads = 1
			s, err := Create(v.cfg)
			if err != nil {
				t.Fatal(err)
			}
			boot := blackboxRegion(t, s)
			const groups = 200
			last := s.Durable()
			for i := uint64(0); i < uint64(groups*max(v.cfg.GroupSize, 1)); i++ {
				if v.replica {
					last++
					err = s.IngestGroup(last, last, []redolog.Entry{{Addr: i % 32 * 8, Val: i}})
				} else {
					last, err = s.Run(0, func(tx *Tx) error { tx.Store(i%32*8, i); return nil })
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := s.WaitDurable(last); err != nil {
				t.Fatal(err)
			}
			s.Close() // quiesces the last write-back and the closing recycle
			st := s.Stats()
			if st.Persist.Groups < groups {
				t.Fatalf("only %d groups persisted, want >= %d", st.Persist.Groups, groups)
			}
			bb := blackboxRegion(t, s)
			if boot.BytesFlushed == 0 {
				t.Error("the boot stamp was not written back")
			}
			if bb.BytesFlushed != boot.BytesFlushed || bb.Fences != boot.Fences {
				t.Errorf("recorder flushed %d B with %d fence(s) over %d groups after boot, want none",
					bb.BytesFlushed-boot.BytesFlushed, bb.Fences-boot.Fences, st.Persist.Groups)
			}
			recs, _, err := blackbox.Decode(s.dev, s.lay.bbOff)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 1 || recs[0].Kind != blackbox.KindBoot {
				t.Fatalf("recorder holds %+v, want the boot stamp alone", recs)
			}
		})
	}
}

// TestInFlightFenceFromTornTail is the deterministic crash inside a log
// append: the last group's record on media only up to an 8-byte
// boundary, for every boundary of the log space it takes. The torn tail
// is the in-flight signature — forensics names the interrupted group
// exactly when the header's tid words (2 and 3) made it, never a range
// at or below the frontier, and nothing for a clean log end; recovery
// restores the frontier the report states either way.
func TestInFlightFenceFromTornTail(t *testing.T) {
	cfg := testConfig()
	cfg.GroupSize = 4
	s, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.PauseReproduce()
	// commitGroups runs whole groups to durability and returns the
	// quiescent persisted image, the log tail and the frontier. The
	// transactions commit while Persist is paused, so the resumed
	// coordinator finds them all ready and the groups seal full.
	commitGroups := func(n int) (img []byte, tail, last uint64) {
		s.PausePersist()
		for i := 0; i < n*cfg.GroupSize; i++ {
			last, err = s.Run(0, func(tx *Tx) error { tx.Store(uint64(i)*8, last+1); return nil })
			if err != nil {
				t.Fatal(err)
			}
		}
		s.ResumePersist()
		if err := s.WaitDurable(last); err != nil {
			t.Fatal(err)
		}
		s.PausePersist() // waits out the worker's in-flight append
		img, tail = s.dev.PersistedImage(), s.writers[0].Tail()
		s.ResumePersist()
		return img, tail, last
	}
	before, tail0, frontier := commitGroups(2)
	after, tail1, last := commitGroups(1)
	s.ResumeReproduce()
	s.Close()

	want := TidRange{frontier + 1, last}
	start := s.lay.logAddr(0) + tail0
	length := tail1 - tail0
	if tail1 > s.lay.logSize || tail0%64 != 0 || length%64 != 0 {
		t.Fatalf("log wrapped or record off a line: tail %d -> %d", tail0, tail1)
	}
	for k := uint64(0); k <= length/8; k++ {
		img := append([]byte(nil), before...)
		copy(img[start:start+8*k], after[start:start+8*k])
		// The padding past the record's last word is never stored.
		whole := bytes.Equal(img[start:start+length], after[start:start+length])
		dev := pmem.New(pmem.Config{Size: uint64(len(img))})
		dev.Restore(img)
		rep, err := Forensics(dev)
		if err != nil {
			t.Fatalf("%d words persisted: %v", k, err)
		}
		wantFrontier, wantTorn, wantFences := frontier, 0, []TidRange(nil)
		switch {
		case whole:
			wantFrontier = last // the whole record: it is its own fence evidence
		case k > 3:
			wantTorn, wantFences = 1, []TidRange{want}
		case k > 1: // the sequence word is on media, the tid words are not
			wantTorn = 1
		}
		if rep.LogFrontier != wantFrontier || rep.TornLogs != wantTorn ||
			fmt.Sprint(rep.InFlightFences) != fmt.Sprint(wantFences) {
			t.Fatalf("%d of %d words persisted: frontier %d, %d torn log(s), in flight %v; want %d, %d, %v",
				k, length/8, rep.LogFrontier, rep.TornLogs, rep.InFlightFences, wantFrontier, wantTorn, wantFences)
		}
		if len(wantFences) > 0 && !strings.Contains(rep.String(), fmt.Sprintf("fence in flight at crash: tids [%d,%d]", want.MinTid, want.MaxTid)) {
			t.Fatalf("report does not name the in-flight group:\n%s", rep)
		}
		s2, err := Recover(dev, cfg)
		if err != nil {
			t.Fatalf("%d words persisted: %v", k, err)
		}
		if got := s2.Durable(); got != rep.LogFrontier {
			t.Fatalf("%d words persisted: recovered durable %d != report frontier %d", k, got, rep.LogFrontier)
		}
		s2.Close()
	}
}

// TestForensicsReadsPreRetirementRing: a ring written before the
// per-group kinds were retired — seal, fence-begin and persist-fence
// slots around each durable stamp, here ending in a fence-begin with no
// persist-fence, and a recycle stamp — still decodes: the report lists
// the old slots under Events and derives nothing from them. The frontier
// is the log's, however far the stale durable stamp claims.
func TestForensicsReadsPreRetirementRing(t *testing.T) {
	s, err := Create(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i := uint64(0); i < 8; i++ {
		last, _ = s.Run(0, func(tx *Tx) error { tx.Store(i*8, i); return nil })
	}
	s.WaitDurable(last)
	s.Close()
	for _, k := range []blackbox.Kind{2, 3, 4, 5, 6, 2, 3} {
		s.bb.Stamp(k, last+1, last+1, 0)
	}
	s.bb.Sync()
	rep, err := Forensics(restoreInto(s))
	if err != nil {
		t.Fatal(err)
	}
	if rep.LogFrontier != last {
		t.Errorf("LogFrontier = %d, want %d", rep.LogFrontier, last)
	}
	if len(rep.InFlightFences) != 0 {
		t.Errorf("retired fence-begin stamp analyzed: in flight %v", rep.InFlightFences)
	}
	var kinds []string
	for _, e := range rep.Events[len(rep.Events)-7:] {
		kinds = append(kinds, e.Kind)
	}
	if got, want := strings.Join(kinds, " "), "retired-2 retired-3 retired-4 retired-5 retired-6 retired-2 retired-3"; got != want {
		t.Errorf("event tail kinds = %q, want %q", got, want)
	}
}

// TestZeroRecorderSlotsRefused: the flight recorder is always on, so a
// pool header declaring 0 recorder slots — even one with a valid CRC —
// describes an image this build has no recorder region for. Recover and
// Forensics both refuse it, naming the cause.
func TestZeroRecorderSlotsRefused(t *testing.T) {
	s, err := Create(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	dev := restoreInto(s)
	lay := s.lay
	lay.bbEntries = 0
	writeHeader(dev, lay)
	const want = "no flight-recorder slots"
	if _, err := Recover(dev, testConfig()); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Recover error = %v, want one containing %q", err, want)
	}
	if _, err := Forensics(dev); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Forensics error = %v, want one containing %q", err, want)
	}
}

// TestRecoveryStatsFreshCreate: a Create mount reports no recovery.
func TestRecoveryStatsFreshCreate(t *testing.T) {
	s, err := Create(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if rec := s.Stats().Recovery; rec.Recovered || rec.Report != nil {
		t.Errorf("fresh Create reports recovery: %+v", rec)
	}
}
