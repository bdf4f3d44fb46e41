package main

import (
	"fmt"
	"path/filepath"
	"strconv"
	"time"
)

// minPaperReps is the fewest timed cmd/paper runs a paper-report run
// makes, however short --seconds is.
const minPaperReps = 3

// paperArgs are cmd/paper's defaults (scale 0.1, 10k lines, both studies,
// live scan on) at the run's seed.
func paperArgs(seed int64) []string {
	return []string{"-seed", strconv.FormatInt(seed, 10)}
}

// paperReport runs cmd/paper at its defaults again and again for the
// measured phase, then once more under GOMAXPROCS=1. Every run's report,
// less its timing line, must have one digest.
//
//	setup_s     exec to the report's first byte (process start and init)
//	report_s    exec to exit of one whole report
//	peak_rss_mb the child's peak resident set
func paperReport(r *run) error {
	path := filepath.Join(r.bin, "paper")
	var wall, first, rss []float64
	var want string
	check := func(br batchRun, label string) {
		d := digest(normaliseReport(string(br.out)))
		if want == "" {
			want = d
		}
		r.op(d == want, "%s report digest %.12s differs from the first run's %.12s", label, d, want)
	}
	start := time.Now()
	for i := 0; i < minPaperReps || time.Now().Before(r.deadline(start)); i++ {
		br, err := runBatch(nil, path, paperArgs(r.seed)...)
		if err != nil {
			return err
		}
		check(br, fmt.Sprintf("run %d", i+1))
		wall = append(wall, br.wall.Seconds())
		first = append(first, br.firstByte.Seconds())
		rss = append(rss, br.rssMB)
	}
	serial, err := runBatch([]string{"GOMAXPROCS=1"}, path, paperArgs(r.seed)...)
	if err != nil {
		return err
	}
	check(serial, "GOMAXPROCS=1")

	r.set("setup_s", median(first))
	r.set("report_s", median(wall))
	r.set("peak_rss_mb", median(rss))
	r.detail("paper-report seed=%d: %d runs, report_s median %.3f (min %.3f max %.3f), GOMAXPROCS=1 %.3f s, digest %.12s",
		r.seed, len(wall), median(wall), minOf(wall), maxOf(wall), serial.wall.Seconds(), want)
	return nil
}
