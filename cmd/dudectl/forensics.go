package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"dudetm/internal/dudetm"
	"dudetm/internal/obs"
	"dudetm/internal/pmem"
)

// runForensics implements `dudectl forensics [-json] [-verify] <image>`:
// decode the flight-recorder ring and log-region state of a crash image
// into a CrashReport, without mutating the image.
func runForensics(args []string) {
	fs := flag.NewFlagSet("forensics", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the crash report as JSON")
	asChrome := fs.Bool("chrome", false, "emit the flight-recorder tail as Chrome trace-event JSON (load in Perfetto)")
	verify := fs.Bool("verify", false, "also recover a scratch copy and check the report's frontier against it")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: dudectl forensics [-json] [-chrome] [-verify] <image>")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}
	img, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	dev := pmem.New(pmem.Config{Size: uint64(len(img))})
	dev.Restore(img)
	rep, err := dudetm.Forensics(dev)
	if err != nil {
		fatal(err)
	}

	if *verify {
		if err := verifyReport(img, rep); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "verify: recovered durable frontier %d matches the report\n", rep.LogFrontier)
	}

	if *asChrome {
		if err := obs.WriteChromeEvents(os.Stdout, forensicsChromeEvents(rep)); err != nil {
			fatal(err)
		}
		return
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Println(rep.String())
}

// verifyReport recovers a scratch copy of img (the image itself is
// untouched) and fails unless recovery restores exactly the durable
// frontier the report claims.
func verifyReport(img []byte, rep *dudetm.CrashReport) error {
	scratch := pmem.New(pmem.Config{Size: uint64(len(img))})
	scratch.Restore(img)
	sys, err := dudetm.Recover(scratch, dudetm.Config{Threads: 1})
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	durable := sys.Durable()
	sys.Close()
	if durable != rep.LogFrontier {
		return fmt.Errorf("verify: recovered durable frontier %d != report frontier %d", durable, rep.LogFrontier)
	}
	return nil
}

// forensicsChromeEvents maps the flight-recorder tail onto one Perfetto
// lane. Recorder stamps carry real wall-clock nanoseconds; the timeline
// is rebased to its first event so it reads as elapsed time before the
// crash.
func forensicsChromeEvents(rep *dudetm.CrashReport) []obs.ChromeEvent {
	events := []obs.ChromeEvent{
		{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "dudesrv (crashed)"}},
		{Name: "thread_name", Ph: "M", Pid: 1, Tid: 1, Args: map[string]any{"name": "flight-recorder"}},
	}
	if len(rep.Events) == 0 {
		return events
	}
	base := rep.Events[0].At
	for _, e := range rep.Events {
		events = append(events, obs.ChromeEvent{
			Name: e.Kind,
			Ph:   "i",
			Ts:   float64(e.At-base) / 1e3,
			Pid:  1,
			Tid:  1,
			S:    "t",
			Args: map[string]any{"seq": e.Seq, "a": e.A, "b": e.B, "c": e.C},
		})
	}
	return events
}
