package dudetm

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dudetm/internal/memdb"
)

func TestPoolBasics(t *testing.T) {
	pool, err := Create(Options{DataSize: 1 << 20, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	tid, err := pool.Update(0, func(tx *Tx) error {
		tx.Store(pool.Root(0), 42)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	pool.WaitDurable(tid)
	if err := pool.View(0, func(tx *Tx) error {
		if v := tx.Load(pool.Root(0)); v != 42 {
			t.Errorf("root = %d", v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestPoolSnapshotRecovery(t *testing.T) {
	pool, err := Create(Options{DataSize: 1 << 20, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i := uint64(0); i < 30; i++ {
		last, _ = pool.Update(0, func(tx *Tx) error {
			tx.Store(pool.Root(int(i%10)), i+1)
			return nil
		})
	}
	pool.WaitDurable(last)
	pool.Close()
	img := pool.Snapshot()

	pool2, err := OpenSnapshot(img, Options{DataSize: 1 << 20, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool2.Close()
	pool2.View(0, func(tx *Tx) error {
		for r := 0; r < 10; r++ {
			want := uint64(20 + r + 1)
			if v := tx.Load(pool2.Root(r)); v != want {
				t.Errorf("root %d = %d, want %d", r, v, want)
			}
		}
		return nil
	})
}

func TestPoolImageFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pool.img")
	pool, err := Create(Options{DataSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	tid, _ := pool.Update(0, func(tx *Tx) error {
		tx.Store(pool.Root(0), 7)
		return nil
	})
	pool.WaitDurable(tid)
	pool.Close()
	if err := pool.SaveImage(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	pool2, err := OpenImage(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool2.Close()
	pool2.View(0, func(tx *Tx) error {
		if v := tx.Load(pool2.Root(0)); v != 7 {
			t.Errorf("root = %d", v)
		}
		return nil
	})
}

func TestPoolCrashLosesUnacknowledged(t *testing.T) {
	pool, err := Create(Options{DataSize: 1 << 20, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Initial durable state.
	tid, _ := pool.Update(0, func(tx *Tx) error {
		tx.Store(pool.Root(0), 1)
		return nil
	})
	pool.WaitDurable(tid)
	// Freeze persistence, then commit more transactions that never
	// become durable.
	pool.PausePersist()
	for i := 0; i < 10; i++ {
		pool.Update(0, func(tx *Tx) error {
			tx.Store(pool.Root(0), 999)
			return nil
		})
	}
	pool.PauseReproduce()  // quiesce the whole pipeline for the snapshot
	img := pool.Snapshot() // crash here
	pool.ResumeReproduce()
	pool.ResumePersist()
	pool.Close()

	pool2, err := OpenSnapshot(img, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool2.Close()
	pool2.View(0, func(tx *Tx) error {
		if v := tx.Load(pool2.Root(0)); v != 1 {
			t.Errorf("root = %d, want last durable value 1", v)
		}
		return nil
	})
}

func TestPoolWithDataStructures(t *testing.T) {
	pool, err := Create(Options{DataSize: 8 << 20, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	var tree memdb.BPlusTree
	if _, err := pool.Update(0, func(tx *Tx) error {
		rootPtr, err := pool.Alloc(tx, 8)
		if err != nil {
			return err
		}
		tx.Store(pool.Root(1), rootPtr)
		tree = memdb.BPlusTree{RootPtr: rootPtr, Heap: pool.Heap()}
		return tree.Format(tx)
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := uint64(w*1000 + i + 1)
				if _, err := pool.Update(w, func(tx *Tx) error {
					return tree.Put(tx, k, k*2)
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	pool.Close()

	// Recover from the snapshot and verify every key survived.
	pool2, err := OpenSnapshot(pool.Snapshot(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool2.Close()
	pool2.View(0, func(tx *Tx) error {
		rootPtr := tx.Load(pool2.Root(1))
		tr := memdb.BPlusTree{RootPtr: rootPtr, Heap: pool2.Heap()}
		for w := 0; w < 4; w++ {
			for i := 0; i < 200; i++ {
				k := uint64(w*1000 + i + 1)
				if v, ok := tr.Get(tx, k); !ok || v != k*2 {
					t.Fatalf("key %d: %d,%v", k, v, ok)
				}
			}
		}
		return nil
	})
}

func TestRootOutOfRangePanics(t *testing.T) {
	pool, err := Create(Options{DataSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	pool.Root(512)
}

// TestPoolWaitDurableCrash races many Pool.WaitDurable callers — some
// for acknowledged IDs, some for IDs that can never become durable —
// against Pool.Crash. Every waiter must unblock: nil when the crash
// frontier covers its ID, ErrCrashed otherwise; and the returned image
// must remount with every acknowledged-durable write intact.
func TestPoolWaitDurableCrash(t *testing.T) {
	pool, err := Create(Options{DataSize: 1 << 20, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i := uint64(0); i < 150; i++ {
		tid, err := pool.Update(int(i)%4, func(tx *Tx) error {
			tx.Store(pool.Root(int(i%64)), i+1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		last = tid
	}

	const waiters = 64
	errs := make([]error, waiters)
	tids := make([]uint64, waiters)
	var wg, started sync.WaitGroup
	for w := 0; w < waiters; w++ {
		tid := last
		if w%2 == 1 {
			tid = last + 1 + uint64(w) // never assigned
		}
		tids[w] = tid
		wg.Add(1)
		started.Add(1)
		go func(w int, tid uint64) {
			defer wg.Done()
			started.Done()
			errs[w] = pool.WaitDurable(tid)
		}(w, tid)
	}
	started.Wait()
	img := pool.Crash()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Pool.WaitDurable hung across Crash")
	}
	frontier := pool.Durable()
	for w := range errs {
		if tids[w] <= frontier && errs[w] != nil {
			t.Errorf("waiter %d (tid %d): unexpected error %v", w, tids[w], errs[w])
		}
		if tids[w] > frontier && !errors.Is(errs[w], ErrCrashed) {
			t.Errorf("waiter %d (tid %d > frontier %d): got %v, want ErrCrashed", w, tids[w], frontier, errs[w])
		}
	}

	pool2, err := OpenSnapshot(img, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool2.Close()
	if pool2.Durable() < frontier {
		t.Fatalf("recovered durable %d < crash frontier %d", pool2.Durable(), frontier)
	}
}

// TestOldFormatImageRefusedByName pins the format bumps of the log
// records: an image whose header says DUDETM02 holds (addr, val)-pair
// records, one that says DUDETM03 holds records under a 56-byte header
// packed at word granularity, and this build would mis-scan either, so
// every mount and decode path must refuse them with an error naming
// both the image's format and the one this build mounts — never scan
// them.
func TestOldFormatImageRefusedByName(t *testing.T) {
	opts := Options{DataSize: 1 << 20, Threads: 2}
	pool, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	tid, _ := pool.Update(0, func(tx *Tx) error {
		tx.Store(pool.Root(0), 42)
		return nil
	})
	pool.WaitDurable(tid)
	pool.Close()
	img := pool.Snapshot()
	if _, err := Forensics(img); err != nil {
		t.Fatalf("current-format image: %v", err)
	}

	for _, old := range []struct {
		name  string
		magic uint64
	}{
		{"DUDETM02", 0x44554445544d3032},
		{"DUDETM03", 0x44554445544d3033},
	} {
		// Rewrite the header as a well-formed old-format header: magic
		// in word 0, CRC-32C of bytes [0,48) in word 6.
		binary.LittleEndian.PutUint64(img[0:], old.magic)
		crc := crc32.Checksum(img[:48], crc32.MakeTable(crc32.Castagnoli))
		binary.LittleEndian.PutUint64(img[48:], uint64(crc))
		path := filepath.Join(t.TempDir(), "old.img")
		if err := os.WriteFile(path, img, 0o600); err != nil {
			t.Fatal(err)
		}

		check := func(what string, err error) {
			t.Helper()
			if err == nil {
				t.Fatalf("%s accepted a %s image", what, old.name)
			}
			for _, name := range []string{old.name, "DUDETM04"} {
				if !strings.Contains(err.Error(), name) {
					t.Errorf("%s: error %q does not name %s", what, err, name)
				}
			}
		}
		_, err = OpenSnapshot(img, opts)
		check("OpenSnapshot (Recover)", err)
		_, err = OpenImage(path, opts)
		check("OpenImage", err)
		_, err = Forensics(img)
		check("Forensics", err)
	}
}

// TestRecordOverwriteByteBudget pins the NVM write traffic of the
// benchmark's tx-btree transaction: overwriting a Pool.Alloc'd 128 B
// record writes back exactly its two data lines and three log lines
// (a 32-byte header and a 136-byte run), two records in one transaction
// five log lines, and the flight recorder writes nothing after boot. A
// record that straddles a third data line, a log record that re-flushes
// the line its predecessor ended in, or a per-group recorder write,
// fails here.
func TestRecordOverwriteByteBudget(t *testing.T) {
	const records, words = 64, 16
	pool, err := Create(Options{DataSize: 1 << 20, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	region := func(name string) (bytes, fences uint64) {
		for _, r := range pool.Stats().Regions {
			if r.Name == name {
				return r.BytesFlushed, r.Fences
			}
		}
		t.Fatalf("no %s region in Stats().Regions", name)
		return 0, 0
	}
	bbBytes, bbFences := region("blackbox")

	var addrs []uint64
	last, err := pool.Update(0, func(tx *Tx) error {
		addrs = addrs[:0]
		for i := 0; i < records; i++ {
			a, err := pool.Alloc(tx, words*8)
			if err != nil {
				return err
			}
			addrs = append(addrs, a)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	pool.WaitDurable(last)
	reproduced := func(what string) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); pool.Reproduced() < last; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s not reproduced: %d < %d", what, pool.Reproduced(), last)
			}
		}
	}
	reproduced("preload")
	dataBytes, _ := region("data")

	// overwrite runs one transaction over recs to durability and returns
	// the log bytes it flushed.
	overwrite := func(i int, recs ...uint64) uint64 {
		t.Helper()
		logBytes, _ := region("log")
		last, err = pool.Update(0, func(tx *Tx) error {
			for _, a := range recs {
				for j := uint64(0); j < words; j++ {
					tx.Store(a+j*8, uint64(i)<<8|j)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := pool.WaitDurable(last); err != nil {
			t.Fatal(err)
		}
		got, _ := region("log")
		return got - logBytes
	}
	for i, a := range addrs {
		if got := overwrite(i, a); got != 192 {
			t.Errorf("overwrite %d flushed %d B of log, want 192", i, got)
		}
	}
	// No replay epoch may hold both of a record's overwrites: it would
	// write the record's lines back once.
	reproduced("single overwrites")
	for i := 0; i+1 < records; i += 2 {
		if got := overwrite(i, addrs[i], addrs[i+1]); got != 320 {
			t.Errorf("overwrite of records %d and %d flushed %d B of log, want 320", i, i+1, got)
		}
	}
	pool.Close() // reproduces every overwrite
	if got, _ := region("data"); got-dataBytes != 2*records*words*8 {
		t.Errorf("data region flushed %d B for %d record overwrites (%.1f B/record), want %d B/record",
			got-dataBytes, 2*records, float64(got-dataBytes)/(2*records), words*8)
	}
	if b, f := region("blackbox"); b != bbBytes || f != bbFences {
		t.Errorf("flight recorder flushed %d B with %d fence(s) after boot, want none", b-bbBytes, f-bbFences)
	}
}
