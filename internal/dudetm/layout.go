package dudetm

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"dudetm/internal/obs/blackbox"
	"dudetm/internal/pmem"
	"dudetm/internal/redolog"
)

// Pool layout on the simulated NVM device:
//
//	[0,   64)               header (magic, nlogs, logSize, dataSize,
//	                        pageSize, bbEntries, crc)
//	[64,  64+64*nlogs)      per-log metadata blocks (redolog.MetaSize
//	                        used, line-aligned so each persists
//	                        atomically)
//	[bbOff, logsOff)        flight-recorder ring (blackbox.Size(bbEntries)
//	                        bytes)
//	[logsOff, ...)          nlogs persistent log buffers
//	[dataOff, +dataSize)    persistent data region (page aligned)
const (
	// poolMagic names the on-media format; its last two characters are
	// the format version. 03 run-encoded the log records' payload
	// (redolog.AppendEntries); 04 starts every log record on a line
	// under a 32-byte header. An older image holds records this build
	// would mis-scan, so readHeader refuses it by name.
	poolMagic     = 0x44554445544d3034 // "DUDETM04"
	headerBytes   = 64
	metaSlotBytes = 64
)

var headerCRCTable = crc32.MakeTable(crc32.Castagnoli)

type layout struct {
	nlogs     uint64
	logSize   uint64
	dataSize  uint64
	pageSize  uint64
	bbEntries uint64 // flight-recorder ring slots

	metaOff uint64
	bbOff   uint64
	logsOff uint64
	dataOff uint64
	total   uint64
}

func computeLayout(nlogs, logSize, dataSize, pageSize, bbEntries uint64) layout {
	l := layout{nlogs: nlogs, logSize: logSize, dataSize: dataSize,
		pageSize: pageSize, bbEntries: bbEntries}
	l.metaOff = headerBytes
	l.bbOff = l.metaOff + nlogs*metaSlotBytes
	l.logsOff = l.bbOff + blackbox.Size(bbEntries)
	l.dataOff = (l.logsOff + nlogs*logSize + pageSize - 1) &^ (pageSize - 1)
	l.total = l.dataOff + dataSize
	return l
}

func (l layout) metaAddr(i int) uint64 { return l.metaOff + uint64(i)*metaSlotBytes }
func (l layout) logAddr(i int) uint64  { return l.logsOff + uint64(i)*l.logSize }

// regions names the layout's sub-ranges for the device's per-region
// flush/fence/byte accounting.
func (l layout) regions() []pmem.Region {
	return []pmem.Region{
		{Name: "header", Addr: 0, Size: headerBytes},
		{Name: "meta", Addr: l.metaOff, Size: l.nlogs * metaSlotBytes},
		{Name: "blackbox", Addr: l.bbOff, Size: l.logsOff - l.bbOff},
		{Name: "log", Addr: l.logsOff, Size: l.nlogs * l.logSize},
		{Name: "data", Addr: l.dataOff, Size: l.dataSize},
	}
}

// writeHeader persists the pool header.
func writeHeader(dev *pmem.Device, l layout) {
	var b [headerBytes]byte
	binary.LittleEndian.PutUint64(b[0:], poolMagic)
	binary.LittleEndian.PutUint64(b[8:], l.nlogs)
	binary.LittleEndian.PutUint64(b[16:], l.logSize)
	binary.LittleEndian.PutUint64(b[24:], l.dataSize)
	binary.LittleEndian.PutUint64(b[32:], l.pageSize)
	binary.LittleEndian.PutUint64(b[40:], l.bbEntries)
	crc := crc32.Checksum(b[:48], headerCRCTable)
	binary.LittleEndian.PutUint64(b[48:], uint64(crc))
	dev.Store(0, b[:])
	dev.Persist(0, headerBytes)
}

// readHeader validates and decodes the pool header.
func readHeader(dev *pmem.Device) (layout, error) {
	var b [headerBytes]byte
	dev.Load(0, b[:])
	if magic := binary.LittleEndian.Uint64(b[0:]); magic != poolMagic {
		if magic>>16 == poolMagic>>16 {
			return layout{}, fmt.Errorf("dudetm: pool image format %s, this build mounts only %s (no in-place upgrade: reload the data into a fresh pool)",
				magicName(magic), magicName(poolMagic))
		}
		return layout{}, fmt.Errorf("dudetm: bad pool magic")
	}
	crc := binary.LittleEndian.Uint64(b[48:])
	if uint64(crc32.Checksum(b[:48], headerCRCTable)) != crc {
		return layout{}, fmt.Errorf("dudetm: corrupt pool header")
	}
	bbEntries := binary.LittleEndian.Uint64(b[40:])
	if bbEntries == 0 {
		return layout{}, fmt.Errorf("dudetm: pool header declares no flight-recorder slots (this build always keeps a recorder)")
	}
	l := computeLayout(
		binary.LittleEndian.Uint64(b[8:]),
		binary.LittleEndian.Uint64(b[16:]),
		binary.LittleEndian.Uint64(b[24:]),
		binary.LittleEndian.Uint64(b[32:]),
		bbEntries,
	)
	if l.total > dev.Size() {
		return layout{}, fmt.Errorf("dudetm: pool layout (%d bytes) exceeds device (%d bytes)", l.total, dev.Size())
	}
	return l, nil
}

// magicName spells a pool magic as its eight characters.
func magicName(magic uint64) string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], magic)
	return string(b[:])
}

// pmSource adapts the persistent data region as the shadow.Source paged
// shadow memories swap from.
type pmSource struct {
	s *System
}

// ReadPage implements shadow.Source.
func (p pmSource) ReadPage(page uint64, dst []byte) {
	p.s.dev.Load(p.s.lay.dataOff+page*p.s.lay.pageSize, dst)
}

// WaitReproduced implements shadow.Source.
func (p pmSource) WaitReproduced(tid uint64) bool {
	return p.s.reproduced.Load() < tid && p.s.reproduced.Wait(tid, nil)
}

// repoMsg carries one persisted group to the Reproduce step, along with
// the index of the writer whose log space it occupies.
type repoMsg struct {
	g  *redolog.Group
	wi int
	ep *[]redolog.Entry // pooled backing slice, returned after replay
}
