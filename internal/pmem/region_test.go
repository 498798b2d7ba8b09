package pmem

import "testing"

// TestRegionAttribution pins the per-region accounting contract: stores
// and flushes are credited to the region containing their start
// address, Persist attributes its fence to that region, and a Batch
// fence is attributed to every region the batch flushed.
func TestRegionAttribution(t *testing.T) {
	d := New(Config{Size: 4096})
	d.SetRegions([]Region{
		{Name: "log", Addr: 0, Size: 1024},
		{Name: "data", Addr: 1024, Size: 1024},
	})

	buf := make([]byte, 128)
	d.Store(0, buf)      // log
	d.Store8(1024, 7)    // data
	d.Persist(0, 128)    // log flush + fence
	d.Store(2048, buf)   // outside all regions
	d.Persist(2048, 128) // unattributed

	find := func(name string) RegionStats {
		t.Helper()
		for _, r := range d.RegionStats() {
			if r.Name == name {
				return r
			}
		}
		t.Fatalf("region %q missing", name)
		return RegionStats{}
	}

	lg, da := find("log"), find("data")
	if lg.Stores != 1 || lg.BytesStored != 128 {
		t.Errorf("log stores = %d/%d bytes, want 1/128", lg.Stores, lg.BytesStored)
	}
	if lg.BytesFlushed != 128 || lg.LinesFlushed != 2 || lg.Fences != 1 {
		t.Errorf("log flushed = %d bytes/%d lines/%d fences, want 128/2/1",
			lg.BytesFlushed, lg.LinesFlushed, lg.Fences)
	}
	if da.Stores != 1 || da.BytesStored != 8 || da.Fences != 0 {
		t.Errorf("data = %+v, want 1 store, 8 bytes, 0 fences", da)
	}

	// A batch spanning both regions attributes its single fence to each.
	d.Store8(64, 1)
	d.Store8(1088, 2)
	b := d.NewBatch()
	b.Flush(64, 8)
	b.Flush(1088, 8)
	b.Fence()
	lg1, da1 := find("log"), find("data")
	if n := lg1.Fences - lg.Fences; n != 1 {
		t.Errorf("batch added %d log fences, want 1", n)
	}
	if n := da1.Fences - da.Fences; n != 1 {
		t.Errorf("batch added %d data fences, want 1", n)
	}
	if n := lg1.BytesFlushed - lg.BytesFlushed; n != LineSize {
		t.Errorf("batch flushed %d log bytes, want %d", n, LineSize)
	}

	// The global counters include the unattributed traffic too.
	if st := d.Stats(); st.BytesStored != 128+8+128+8+8 {
		t.Errorf("global BytesStored = %d", st.BytesStored)
	}
}
