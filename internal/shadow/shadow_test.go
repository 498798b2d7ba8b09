package shadow

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dudetm/internal/park"
	"dudetm/internal/word"
)

// fakeSource is an in-DRAM stand-in for the persistent data region with a
// settable Reproduce watermark.
type fakeSource struct {
	mu         sync.Mutex
	data       []byte
	pageSize   uint64
	reproduced park.Frontier
}

func newFakeSource(size, pageSize uint64) *fakeSource {
	return &fakeSource{data: word.Alloc(size), pageSize: pageSize}
}

func (s *fakeSource) ReadPage(page uint64, dst []byte) {
	s.mu.Lock()
	copy(dst, s.data[page*s.pageSize:(page+1)*s.pageSize])
	s.mu.Unlock()
}

func (s *fakeSource) WaitReproduced(tid uint64) bool {
	return s.reproduced.Load() < tid && s.reproduced.Wait(tid, nil)
}

// apply emulates the Reproduce step: write the value into the persistent
// copy, then advance the watermark.
func (s *fakeSource) apply(addr, val, tid uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	word.Store(s.data, addr, val)
	if tid > s.reproduced.Load() {
		s.reproduced.Store(tid)
	}
}

const (
	tPageSize = 512
	tPages    = 64
	tSize     = tPageSize * tPages
)

func spaces(shadowPages uint64) map[string]Space {
	mk := func(mode Mode) Space {
		return NewPaged(PagedConfig{
			Size:          tSize,
			ShadowBytes:   shadowPages * tPageSize,
			PageSize:      tPageSize,
			Mode:          mode,
			DisableDelays: true,
		}, newFakeSource(tSize, tPageSize))
	}
	return map[string]Space{
		"flat": NewFlat(tSize, nil, tPageSize),
		"sw":   mk(SoftwarePaging),
		"hw":   mk(HardwarePaging),
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	for name, sp := range spaces(tPages) {
		t.Run(name, func(t *testing.T) {
			sp.Store8(0, 1)
			sp.Store8(tSize-8, 2)
			sp.Store8(tPageSize*3+16, 3)
			if sp.Load8(0) != 1 || sp.Load8(tSize-8) != 2 || sp.Load8(tPageSize*3+16) != 3 {
				t.Fatal("round trip failed")
			}
		})
	}
}

func TestFlatInitFromSource(t *testing.T) {
	src := newFakeSource(tSize, tPageSize)
	word.Store(src.data, 128, 77)
	f := NewFlat(tSize, src, tPageSize)
	if f.Load8(128) != 77 {
		t.Fatal("flat space not initialized from source")
	}
}

func TestPagedFaultsInFromSource(t *testing.T) {
	for _, mode := range []Mode{SoftwarePaging, HardwarePaging} {
		src := newFakeSource(tSize, tPageSize)
		word.Store(src.data, tPageSize*5+8, 123)
		p := NewPaged(PagedConfig{
			Size: tSize, ShadowBytes: 8 * tPageSize, PageSize: tPageSize,
			Mode: mode, DisableDelays: true,
		}, src)
		if v := p.Load8(tPageSize*5 + 8); v != 123 {
			t.Fatalf("mode %d: got %d", mode, v)
		}
		if p.Stats().Faults != 1 {
			t.Fatalf("faults = %d", p.Stats().Faults)
		}
	}
}

func TestEvictionDiscardsAndRefaults(t *testing.T) {
	for _, mode := range []Mode{SoftwarePaging, HardwarePaging} {
		src := newFakeSource(tSize, tPageSize)
		p := NewPaged(PagedConfig{
			Size: tSize, ShadowBytes: 8 * tPageSize, PageSize: tPageSize,
			Mode: mode, DisableDelays: true,
		}, src)
		// Commit a write on page 0 and reproduce it to the source.
		p.Store8(8, 42)
		pg := p.PinWritePage(8)
		src.apply(8, 42, 1)
		p.CommitPages([]uint64{pg}, 1)
		// Touch more pages than there are frames to force eviction.
		for page := uint64(1); page < tPages; page++ {
			p.Load8(page * tPageSize)
		}
		if p.Stats().Evictions == 0 {
			t.Fatalf("mode %d: no evictions with %d pages over 8 frames", mode, tPages)
		}
		// Page 0 was discarded; refault must read the reproduced value.
		if v := p.Load8(8); v != 42 {
			t.Fatalf("mode %d: refaulted value %d, want 42", mode, v)
		}
	}
}

func TestSwapInWaitsForReproduce(t *testing.T) {
	for _, mode := range []Mode{SoftwarePaging, HardwarePaging} {
		src := newFakeSource(tSize, tPageSize)
		p := NewPaged(PagedConfig{
			Size: tSize, ShadowBytes: 8 * tPageSize, PageSize: tPageSize,
			Mode: mode, DisableDelays: true,
		}, src)
		// Write page 0, commit as tid 5 — but do not reproduce yet.
		p.Store8(8, 42)
		pg := p.PinWritePage(8)
		p.CommitPages([]uint64{pg}, 5)
		// Apply pressure until page 0 is actually evicted.
		for round := 0; slotFrame(p.slots[0].Load()) != 0; round++ {
			if round > 100 {
				t.Fatalf("mode %d: page 0 never evicted", mode)
			}
			for page := uint64(1); page < tPages; page++ {
				p.Load8(page * tPageSize)
			}
		}
		// Refault must block until the source catches up.
		done := make(chan uint64, 1)
		go func() { done <- p.Load8(8) }()
		select {
		case v := <-done:
			t.Fatalf("mode %d: swap-in returned %d before reproduce", mode, v)
		case <-time.After(20 * time.Millisecond):
		}
		src.apply(8, 42, 5)
		select {
		case v := <-done:
			if v != 42 {
				t.Fatalf("mode %d: got %d", mode, v)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("mode %d: swap-in never completed", mode)
		}
		if p.Stats().SwapInWaits == 0 {
			t.Fatalf("mode %d: wait not counted", mode)
		}
	}
}

func TestPinnedPageSurvivesPressure(t *testing.T) {
	for _, mode := range []Mode{SoftwarePaging, HardwarePaging} {
		src := newFakeSource(tSize, tPageSize)
		p := NewPaged(PagedConfig{
			Size: tSize, ShadowBytes: 8 * tPageSize, PageSize: tPageSize,
			Mode: mode, DisableDelays: true,
		}, src)
		p.Store8(16, 7) // uncommitted write on page 0
		pg := p.PinWritePage(16)
		// Pressure: cycle through all other pages repeatedly.
		for round := 0; round < 3; round++ {
			for page := uint64(1); page < tPages; page++ {
				p.Load8(page * tPageSize)
			}
		}
		// The uncommitted value must still be visible (page never
		// evicted, since eviction would discard it and the source has
		// no copy).
		if v := p.Load8(16); v != 7 {
			t.Fatalf("mode %d: pinned page lost uncommitted write: %d", mode, v)
		}
		p.ReleasePages([]uint64{pg})
	}
}

func TestCommitPagesRaisesTouchMonotonically(t *testing.T) {
	src := newFakeSource(tSize, tPageSize)
	p := NewPaged(PagedConfig{
		Size: tSize, ShadowBytes: 8 * tPageSize, PageSize: tPageSize,
		Mode: SoftwarePaging, DisableDelays: true,
	}, src)
	pg := p.PinWritePage(0)
	p.CommitPages([]uint64{pg}, 10)
	pg = p.PinWritePage(0)
	p.CommitPages([]uint64{pg}, 3) // lower tid must not regress touch
	if got := p.touch[0].Load(); got != 10 {
		t.Fatalf("touch = %d, want 10", got)
	}
}

func TestConfigValidation(t *testing.T) {
	src := newFakeSource(tSize, tPageSize)
	for _, cfg := range []PagedConfig{
		{Size: tSize, ShadowBytes: 2 * tPageSize, PageSize: tPageSize},     // too few frames
		{Size: tSize, ShadowBytes: 8 * tPageSize, PageSize: 1000},          // not power of two
		{Size: tSize + 8, ShadowBytes: 8 * tPageSize, PageSize: tPageSize}, // not page multiple
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("config %+v accepted", cfg)
				}
			}()
			NewPaged(cfg, src)
		}()
	}
}

func TestConcurrentPagingStress(t *testing.T) {
	// Each worker owns a disjoint set of pages and increments a counter
	// word on each, emulating commit+reproduce immediately. Any paging
	// bug (lost pin, torn optimistic read, frame reuse corruption)
	// breaks the final counts.
	for _, mode := range []Mode{SoftwarePaging, HardwarePaging} {
		src := newFakeSource(tSize, tPageSize)
		p := NewPaged(PagedConfig{
			Size: tSize, ShadowBytes: 8 * tPageSize, PageSize: tPageSize,
			Mode: mode, DisableDelays: true,
		}, src)
		const workers = 4
		const iters = 800
		var tidGen atomic.Uint64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := uint64(w)*2654435761 + 12345
				for i := 0; i < iters; i++ {
					rng = rng*6364136223846793005 + 1442695040888963407
					page := (uint64(w) + workers*(rng>>40)%((tPages)/workers)) % tPages
					page = uint64(w) + workers*((rng>>40)%(tPages/workers))
					addr := page * tPageSize
					pg := p.PinWritePage(addr)
					v := p.Load8(addr)
					p.Store8(addr, v+1)
					tid := tidGen.Add(1)
					src.apply(addr, v+1, tid)
					p.CommitPages([]uint64{pg}, tid)
				}
			}(w)
		}
		wg.Wait()
		var total uint64
		for page := uint64(0); page < tPages; page++ {
			total += p.Load8(page * tPageSize)
		}
		if total != workers*iters {
			t.Fatalf("mode %d: total increments %d, want %d", mode, total, workers*iters)
		}
	}
}

func TestHWShootdownDelayApplied(t *testing.T) {
	src := newFakeSource(tSize, tPageSize)
	p := NewPaged(PagedConfig{
		Size: tSize, ShadowBytes: 8 * tPageSize, PageSize: tPageSize,
		Mode: HardwarePaging, ShootdownDelay: 2 * time.Millisecond,
	}, src)
	// Fill all frames, then cause one eviction and time it.
	for page := uint64(0); page < 8; page++ {
		p.Load8(page * tPageSize)
	}
	start := time.Now()
	p.Load8(20 * tPageSize) // must evict
	if el := time.Since(start); el < 2*time.Millisecond {
		t.Fatalf("eviction took %v, want >= 2ms shootdown", el)
	}
	if p.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d", p.Stats().Evictions)
	}
}
