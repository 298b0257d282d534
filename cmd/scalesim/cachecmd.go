package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"scalesim/internal/diskstore"
)

// runCache implements `scalesim cache`: offline inspection and maintenance
// of a persistent result store created with `scalesim serve -store` (or
// Cache.AttachStore).
//
//	scalesim cache stats  -store ./cache    occupancy and recovery counters
//	scalesim cache verify -store ./cache    re-checksum every log entry
//	scalesim cache gc     -store ./cache    compact the log to budget
//
// stats and verify open the store read-only (shared lock), so they can run
// next to a live read-only inspection but not while a server holds the
// write lock. Both fail on a path that holds no store. verify exits
// non-zero when any entry fails its checksum, the log has an unparseable
// tail, or an indexed key has no valid entry.
func runCache(args []string) error {
	fs := flag.NewFlagSet("scalesim cache", flag.ExitOnError)
	var (
		storeDir = fs.String("store", "", "persistent result-store directory (required)")
		storeMB  = fs.Int("store-mb", 0, "store log capacity in MiB, used by gc (0 = default 1024)")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: scalesim cache {stats|verify|gc} -store <dir>")
		fs.PrintDefaults()
	}
	if len(args) == 0 {
		fs.Usage()
		return fmt.Errorf("cache: missing action (stats, verify or gc)")
	}
	action := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if *storeDir == "" {
		fs.Usage()
		return fmt.Errorf("cache %s: missing -store", action)
	}

	maxBytes := int64(*storeMB) << 20
	switch action {
	case "stats":
		return cacheStats(*storeDir, maxBytes)
	case "verify":
		return cacheVerify(*storeDir, maxBytes)
	case "gc":
		return cacheGC(*storeDir, maxBytes)
	default:
		fs.Usage()
		return fmt.Errorf("cache: unknown action %q (want stats, verify or gc)", action)
	}
}

func cacheStats(dir string, maxBytes int64) error {
	s, err := diskstore.Open(dir, diskstore.Options{MaxBytes: maxBytes, ReadOnly: true})
	if err != nil {
		return err
	}
	defer s.Close() //nolint:errcheck // read-only: nothing to flush

	st := s.Stats()
	tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "store\t%s\n", s.Dir())
	fmt.Fprintf(tw, "entries\t%d\n", st.Entries)
	fmt.Fprintf(tw, "log bytes\t%d / %d (%.1f%%)\n",
		st.LogBytes, st.MaxBytes, 100*float64(st.LogBytes)/float64(st.MaxBytes))
	fmt.Fprintf(tw, "recovered\t%d\n", st.Recovered)
	fmt.Fprintf(tw, "skipped\t%d\n", st.Skipped)
	fmt.Fprintf(tw, "truncated bytes\t%d\n", st.TruncatedBytes)
	if st.SnapshotUpTo > 0 {
		fmt.Fprintf(tw, "snapshot\tcovers %d bytes, written %s\n",
			st.SnapshotUpTo, time.Unix(st.SnapshotUnix, 0).UTC().Format(time.RFC3339))
	} else {
		fmt.Fprintf(tw, "snapshot\tnone\n")
	}
	return tw.Flush()
}

func cacheVerify(dir string, maxBytes int64) error {
	s, err := diskstore.Open(dir, diskstore.Options{MaxBytes: maxBytes, ReadOnly: true})
	if err != nil {
		return err
	}
	defer s.Close() //nolint:errcheck // read-only: nothing to flush

	res, err := s.Verify()
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "store\t%s\n", s.Dir())
	fmt.Fprintf(tw, "valid entries\t%d\n", res.Valid)
	fmt.Fprintf(tw, "corrupt entries\t%d\n", res.Corrupt)
	fmt.Fprintf(tw, "torn tail bytes\t%d\n", res.TornBytes)
	fmt.Fprintf(tw, "indexed missing\t%d\n", res.IndexedMissing)
	if err := tw.Flush(); err != nil {
		return err
	}
	if !res.Clean() {
		return fmt.Errorf("cache verify: store %s failed verification", s.Dir())
	}
	fmt.Println("ok")
	return nil
}

func cacheGC(dir string, maxBytes int64) error {
	s, err := diskstore.Open(dir, diskstore.Options{MaxBytes: maxBytes})
	if err != nil {
		return err
	}
	defer s.Close() //nolint:errcheck // Close snapshots; GC already synced

	before := s.Stats()
	dropped, err := s.GC()
	if err != nil {
		return err
	}
	after := s.Stats()
	tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "store\t%s\n", s.Dir())
	fmt.Fprintf(tw, "dropped entries\t%d\n", dropped)
	fmt.Fprintf(tw, "entries\t%d -> %d\n", before.Entries, after.Entries)
	fmt.Fprintf(tw, "log bytes\t%d -> %d\n", before.LogBytes, after.LogBytes)
	return tw.Flush()
}
