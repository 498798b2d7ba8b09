// Command dudectl inspects and recovers DudeTM pool images (raw
// simulated-NVM snapshots written by Pool.SaveImage or the examples),
// and reads a live dudesrv metrics endpoint.
//
// Usage:
//
//	dudectl inspect <image>     show pool geometry, log state, frontier
//	dudectl recover <image>     replay logs, write the recovered image back
//	dudectl forensics <image>   decode the flight recorder into a crash report (-json, -verify)
//	dudectl top [flags]         live pipeline view from a dudesrv -metrics endpoint
//	dudectl critpath [flags]    rank critical-path segments from a dudesrv -metrics endpoint
package main

import (
	"fmt"
	"os"

	"dudetm/internal/dudetm"
	"dudetm/internal/pmem"
)

func main() {
	if len(os.Args) >= 2 && os.Args[1] == "top" {
		runTop(os.Args[2:])
		return
	}
	if len(os.Args) >= 2 && os.Args[1] == "critpath" {
		runCritpath(os.Args[2:])
		return
	}
	if len(os.Args) >= 2 && os.Args[1] == "forensics" {
		runForensics(os.Args[2:])
		return
	}
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: dudectl inspect|recover|forensics <image> | dudectl top [flags] | dudectl critpath [flags]")
		os.Exit(2)
	}
	cmd, path := os.Args[1], os.Args[2]
	img, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	dev := pmem.New(pmem.Config{Size: uint64(len(img))})
	dev.Restore(img)

	switch cmd {
	case "inspect":
		info, err := dudetm.Inspect(dev)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("pool: %d logs x %d KiB, data %d MiB, page %d B\n",
			info.NLogs, info.LogSize>>10, info.DataSize>>20, info.PageSize)
		fmt.Printf("replay anchor: tid %d, durable frontier: tid %d\n",
			info.Anchor, info.Frontier)
		for i, lg := range info.Logs {
			if lg.LiveGroups == 0 {
				fmt.Printf("log %d: empty (next seq %d, reproTid %d)\n", i, lg.NextSeq, lg.ReproTid)
				continue
			}
			fmt.Printf("log %d: %d live groups, %d entries, tids %d-%d (next seq %d)\n",
				i, lg.LiveGroups, lg.LiveEntries, lg.MinTid, lg.MaxTid, lg.NextSeq)
		}
	case "recover":
		sys, err := dudetm.Recover(dev, dudetm.Config{Threads: 1})
		if err != nil {
			fatal(err)
		}
		frontier := sys.Durable()
		sys.Close()
		out := dev.PersistedImage()
		if err := os.WriteFile(path, out, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("recovered to durable frontier tid %d; image rewritten\n", frontier)
	default:
		fmt.Fprintf(os.Stderr, "dudectl: unknown command %q\n", cmd)
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dudectl:", err)
	os.Exit(1)
}
