// Package tracestamp is dudelint analyzer testdata: trace stamps
// inside and outside persist-ordered flush→fence windows. Never built
// by the go tool.
package tracestamp

import (
	"dudetm/internal/obs"
	"dudetm/internal/pmem"
)

// bad1: a clock read between flush and fence brackets only part of the
// barrier — the recorded fence latency excludes the fence itself.
func bad1(dev *pmem.Device, o *obs.Observer, addr uint64) int64 {
	n := dev.FlushRange(addr, 64)
	at := o.Now() // want: inside an open flush->fence window
	dev.Fence(n)
	return at
}

// bad2: stamping a group persisted before its fence publishes a
// durability record for data the barrier has not ordered yet.
func bad2(dev *pmem.Device, o *obs.Observer, addr uint64, at int64) {
	n := dev.FlushRange(addr, 64)
	o.GroupPersisted(1, 4, at, at) // want: inside an open flush->fence window
	dev.Fence(n)
}

// bad3: batch windows count too.
func bad3(dev *pmem.Device, o *obs.Observer, addrs []uint64) {
	b := dev.NewBatch()
	for _, a := range addrs {
		b.Flush(a, 8)
	}
	o.Commit(7) // want: inside an open flush->fence window
	b.Fence()
}

// good1: stamps bracketing the window measure the whole barrier.
func good1(dev *pmem.Device, o *obs.Observer, addr uint64) int64 {
	start := o.Now()
	n := dev.FlushRange(addr, 64)
	dev.Fence(n)
	end := o.Now()
	return end - start
}

// good2: a stamp after the closing fence records ordered data.
func good2(dev *pmem.Device, o *obs.Observer, addr uint64, at int64) {
	n := dev.FlushRange(addr, 64)
	dev.Fence(n)
	o.GroupPersisted(1, 4, at, at)
	o.DurableAdvanced(4)
}

// good3: stamps in a function with no persist window at all.
func good3(o *obs.Observer) {
	o.Commit(1)
	o.GroupApplied(1, 1)
	o.ReproducedAdvanced(1)
}

// good4: a second window reopens the rule; the stamp between windows
// is fine.
func good4(dev *pmem.Device, o *obs.Observer, a, b uint64) {
	n := dev.FlushRange(a, 64)
	dev.Fence(n)
	o.GroupSealed(1, 2, 2, 4)
	m := dev.FlushRange(b, 64)
	dev.Fence(m)
}

// good5: non-stamp observer reads (Sampled, Snapshot) are not
// stamps and may appear anywhere.
func good5(dev *pmem.Device, o *obs.Observer, addr uint64) {
	n := dev.FlushRange(addr, 64)
	if o.Sampled(9) {
		_ = o.Snapshot()
	}
	dev.Fence(n)
}
