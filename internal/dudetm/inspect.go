package dudetm

import (
	"dudetm/internal/pmem"
	"dudetm/internal/redolog"
)

// PoolInfo describes the persistent state of a pool image without
// mounting it (used by the dudectl inspector).
type PoolInfo struct {
	NLogs    uint64
	LogSize  uint64
	DataSize uint64
	PageSize uint64
	// Anchor is the recovery replay anchor: the largest reproduced
	// transaction ID any log recycle persisted.
	Anchor uint64
	// Frontier is the largest transaction ID recovery would restore
	// (the dense durable prefix).
	Frontier uint64
	Logs     []LogInfo
}

// LogInfo summarizes one persistent log.
type LogInfo struct {
	LiveGroups  int
	LiveEntries int
	NextSeq     uint64
	ReproTid    uint64
	MinTid      uint64 // of live groups; 0 when empty
	MaxTid      uint64
}

// Inspect reads a pool image's header and logs.
func Inspect(dev *pmem.Device) (PoolInfo, error) {
	lay, err := readHeader(dev)
	if err != nil {
		return PoolInfo{}, err
	}
	results, anchor, groups, err := scanPool(dev, lay)
	if err != nil {
		return PoolInfo{}, err
	}
	info := PoolInfo{
		NLogs:    lay.nlogs,
		LogSize:  lay.logSize,
		DataSize: lay.dataSize,
		PageSize: lay.pageSize,
		Anchor:   anchor,
		// The dense durable frontier, computed the same way Recover does.
		Frontier: denseFrontier(anchor, groups),
	}
	for _, res := range results {
		li := LogInfo{
			LiveGroups: len(res.Groups),
			NextSeq:    res.NextSeq,
			ReproTid:   res.ReproTid,
		}
		for _, g := range res.Groups {
			li.LiveEntries += len(g.Entries)
			if li.MinTid == 0 || g.MinTid < li.MinTid {
				li.MinTid = g.MinTid
			}
			if g.MaxTid > li.MaxTid {
				li.MaxTid = g.MaxTid
			}
		}
		info.Logs = append(info.Logs, li)
	}
	return info, nil
}

// denseFrontier returns the largest ID reachable from anchor through a
// gap-free chain of live groups.
func denseFrontier(anchor uint64, groups []redolog.Group) uint64 {
	next := anchor + 1
	frontier := anchor
	for {
		advanced := false
		for _, g := range groups {
			if g.MinTid == next {
				next = g.MaxTid + 1
				frontier = g.MaxTid
				advanced = true
			}
		}
		if !advanced {
			return frontier
		}
	}
}
