package redolog

// Combiner coalesces writes across a group of consecutive transactions
// (§3.3, "Log Combination"): if two writes in the group modify the same
// address, only the last survives, because the whole group is flushed —
// and later replayed — atomically. Entries must be added in transaction
// order.
//
// The index is an open-addressed table sized by the recent groups, not
// by the addresses ever seen: slots are epoch-stamped, Reset bumps the
// epoch instead of clearing, and a slot left over from an earlier group
// counts as empty. Nothing is deleted within a group, so linear probing
// stays sound. The table grows while a group fills more than half of it
// and shrinks once combShrinkAfter consecutive groups have each used
// less than an eighth, so one oversized group (a bulk load) does not
// leave every later Add missing cache in a table sized for it.
// Steady-state combination allocates nothing per group
// (BenchmarkCombiner checks this), Reset is O(1) between resizes, and
// the table of a 1 K-entry group stays cache resident however many
// distinct addresses the workload touches over its lifetime.
type Combiner struct {
	slots   []combSlot // power-of-two length, at least twice the live entries
	shift   uint       // 64 - log2(len(slots))
	epoch   uint64
	entries []Entry
	raw     int // entries added before combination
	sparse  int // consecutive groups that used < 1/8 of the slots
	peak    int // largest of those groups
}

// combSlot is one index slot: addr's entry position, valid for epoch.
type combSlot struct {
	addr  uint64
	epoch uint64
	i     int
}

const (
	combMinSlots    = 2048
	combShrinkAfter = 256
)

// NewCombiner creates an empty combiner.
func NewCombiner() *Combiner {
	c := &Combiner{epoch: 1}
	c.resize(combMinSlots)
	return c
}

// resize re-indexes the current group's entries into a table of n slots.
func (c *Combiner) resize(n int) {
	c.slots = make([]combSlot, n)
	c.shift = 64
	for m := n; m > 1; m >>= 1 {
		c.shift--
	}
	for i, e := range c.entries {
		*c.slot(e.Addr) = combSlot{addr: e.Addr, epoch: c.epoch, i: i}
	}
}

// slot returns addr's slot in the current group: the one holding it, or
// the empty (stale) one where it belongs.
func (c *Combiner) slot(addr uint64) *combSlot {
	mask := uint64(len(c.slots) - 1)
	for h := (addr * 0x9e3779b97f4a7c15) >> c.shift; ; h = (h + 1) & mask {
		if sl := &c.slots[h]; sl.epoch != c.epoch || sl.addr == addr {
			return sl
		}
	}
}

// Add records a write, overwriting any earlier write to the same address
// in the current group.
func (c *Combiner) Add(addr, val uint64) {
	c.raw++
	sl := c.slot(addr)
	if sl.epoch == c.epoch {
		c.entries[sl.i].Val = val
		return
	}
	*sl = combSlot{addr: addr, epoch: c.epoch, i: len(c.entries)}
	c.entries = append(c.entries, Entry{Addr: addr, Val: val})
	if 2*len(c.entries) > len(c.slots) {
		c.resize(2 * len(c.slots))
	}
}

// AddAll records a slice of writes in order.
func (c *Combiner) AddAll(entries []Entry) {
	for _, e := range entries {
		c.Add(e.Addr, e.Val)
	}
}

// Entries returns the combined group. The slice is owned by the combiner
// and invalidated by Reset.
func (c *Combiner) Entries() []Entry { return c.entries }

// RawCount returns the number of writes added since the last Reset,
// before combination.
func (c *Combiner) RawCount() int { return c.raw }

// Len returns the number of combined entries.
func (c *Combiner) Len() int { return len(c.entries) }

// Reset clears the combiner for the next group by advancing the epoch;
// stale index slots die lazily. After combShrinkAfter sparse groups in a
// row it reallocates the table, and the entry slice, at four times the
// largest of them (at least combMinSlots).
func (c *Combiner) Reset() {
	if n := len(c.entries); len(c.slots) > combMinSlots && 8*n < len(c.slots) {
		c.sparse++
		c.peak = max(c.peak, n)
	} else {
		c.sparse, c.peak = 0, 0
	}
	c.epoch++
	c.entries = c.entries[:0]
	c.raw = 0
	if c.sparse == combShrinkAfter {
		n := combMinSlots
		for n < 4*c.peak {
			n *= 2
		}
		c.entries = make([]Entry, 0, n/2)
		c.resize(n)
		c.sparse, c.peak = 0, 0
	}
}
