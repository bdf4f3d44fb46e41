package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// The serve workloads replay one recorded week: a single dictionary-format
// stream exported at this world size.
const (
	serveScale = 0.05
	serveLines = 30000
)

const (
	minReplayReps   = 4
	replayCycles    = 2                      // replay reps that also read idle and restore
	replayReads     = 50                     // idle /figures reads per cycle rep
	replayReadEvery = 50 * time.Millisecond  // their open-loop spacing
	dashboardSpan   = 10 * time.Second       // the paced feed's length
	dashboardReads  = 50                     // /figures reads per dashboard rep
	dashboardEvery  = 200 * time.Millisecond // their open-loop spacing
	dashboardReps   = 2                      // paced reps per dashboard run, at least
	dashboardSetups = 3                      // daemon starts per dashboard run, at least
	dashboardChunk  = 16 << 10               // paced feed write size
	fullSpeedChunk  = 256 << 10              // full-speed feed write size
	// genLateBoundMs is the most the generator may oversleep (p99 of its
	// wake-ups) before the run's schedule no longer holds and the run
	// counts as failed.
	genLateBoundMs = 25
)

// recording is the exported feed the serve workloads replay, with the
// exporter's own record counts and the batch collector's figures for it.
type recording struct {
	path    string
	data    []byte
	records uint64 // exporter V4Records + V6Records
	figures string // batch-collector figures of the same recording
}

var exportedRe = regexp.MustCompile(`(\d+) v4 \+ (\d+) v6 records`)

// serveWorld is the flag set that fixes the daemon's and exporter's world.
func serveWorld(seed int64) []string {
	return []string{"-seed", strconv.FormatInt(seed, 10),
		"-scale", strconv.FormatFloat(serveScale, 'g', -1, 64), "-lines", strconv.Itoa(serveLines)}
}

// prepareRecording exports the week to one stream file and ingests that
// file with the batch collector, which gives the figures the daemon must
// serve once it has taken in the same bytes.
func prepareRecording(r *run) (*recording, error) {
	dir := filepath.Join(r.dir, "rec")
	exe := filepath.Join(r.bin, "iotcollect")
	br, err := runBatch(nil, exe, append(serveWorld(r.seed), "-export", dir, "-streams", "1")...)
	if err != nil {
		return nil, err
	}
	m := exportedRe.FindSubmatch(br.out)
	if m == nil {
		return nil, fmt.Errorf("export printed no record counts: %q", br.out)
	}
	v4, _ := strconv.ParseUint(string(m[1]), 10, 64)
	v6, _ := strconv.ParseUint(string(m[2]), 10, 64)
	rec := &recording{path: filepath.Join(dir, "stream-0.nf"), records: v4 + v6}
	if rec.data, err = os.ReadFile(rec.path); err != nil {
		return nil, err
	}
	ref, err := runBatch(nil, exe, append(serveWorld(r.seed), rec.path)...)
	if err != nil {
		return nil, err
	}
	i := bytes.Index(ref.out, []byte("\n\n"))
	if i < 0 {
		return nil, errors.New("batch collector printed no figures")
	}
	rec.figures = string(ref.out[i+2:])
	r.detail("recording seed=%d: %d records, %.1f MB", r.seed, rec.records, float64(len(rec.data))/1e6)
	return rec, nil
}

// daemonArgs starts the daemon on ephemeral ports with its checkpoint in
// the run directory.
func daemonArgs(r *run) []string {
	return append(serveWorld(r.seed),
		"-serve", "127.0.0.1:0", "-feed-listen", "127.0.0.1:0",
		"-checkpoint", filepath.Join(r.dir, "ckpt"))
}

// statsView is the part of GET /stats the benchmark checks.
type statsView struct {
	Restored bool `json:"restored"`
	Wire     struct {
		V4Records, V6Records uint64
	} `json:"wire"`
}

func (d *daemon) stats() (statsView, error) {
	var s statsView
	body, err := d.get("/stats")
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(body, &s)
}

// settleTimeout is how long /stats may stand still short of the
// exporter's count before the count is taken as final.
const settleTimeout = 5 * time.Second

// waitCounted polls /stats until it counts want records and returns when
// it first did. V4Records+V6Records already include every batch row, so
// BatchRecords is not added on top. A count that passes want, or stands
// still short of it for settleTimeout, is returned with ok false.
func (d *daemon) waitCounted(want uint64) (at time.Time, got uint64, ok bool, err error) {
	changed := time.Now()
	for {
		s, err := d.stats()
		if err != nil {
			return time.Time{}, 0, false, err
		}
		n := s.Wire.V4Records + s.Wire.V6Records
		if n != got {
			got, changed = n, time.Now()
		}
		switch {
		case got == want:
			return changed, got, true, nil
		case got > want || time.Since(changed) > settleTimeout:
			return changed, got, false, nil
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// feedResult is what the feed side of the generator saw.
type feedResult struct {
	lastDue  time.Time // when the final chunk was due
	lastSent time.Time // when the final byte was handed to the socket
	err      error
}

// sendFeed writes data to the daemon's feed port on the clock's schedule
// over one connection and closes it, which ends the stream.
func sendFeed(addr string, data []byte, plan feedPlan, c *clock) feedResult {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return feedResult{err: err}
	}
	defer conn.Close()
	var res feedResult
	for i := 0; i < plan.chunks; i++ {
		res.lastDue = c.wait(plan.due(i))
		lo := i * plan.chunk
		hi := min(lo+plan.chunk, len(data))
		if _, err := conn.Write(data[lo:hi]); err != nil {
			res.err = err
			return res
		}
	}
	res.lastSent = time.Now()
	return res
}

// readFigures issues n GET /figures on the clock's schedule, every apart,
// and returns each latency in ms timed from when the read was due.
func readFigures(d *daemon, c *clock, from time.Duration, n int, every time.Duration, check func([]byte) bool) (lat []float64, bad int) {
	for j := 0; j < n; j++ {
		due := c.wait(from + time.Duration(j)*every)
		body, err := d.get("/figures")
		lat = append(lat, float64(time.Since(due))/float64(time.Millisecond))
		if err != nil || !check(body) {
			bad++
		}
	}
	return lat, bad
}

// servePercentiles prints p50 and p90 of read latencies with the sample
// count, or says why p90 cannot be reported.
func servePercentiles(r *run, label string, lat []float64) {
	p50, _, _ := percentile(lat, 50)
	if p90, beyond, ok := percentile(lat, 90); ok {
		r.detail("  %s: figures_p50_ms %.1f figures_p90_ms %.1f (n=%d, %d beyond p90)", label, p50, p90, len(lat), beyond)
	} else {
		r.detail("  %s: figures_p50_ms %.1f, p90 not reported: n=%d leaves %d beyond it", label, p50, len(lat), beyond)
	}
}

// startHealthy starts a daemon and waits for /healthz, returning the
// time from exec to healthy.
func startHealthy(r *run) (*daemon, time.Duration, error) {
	d, err := startDaemon(r.bin, daemonArgs(r)...)
	if err != nil {
		return nil, 0, err
	}
	up, err := d.waitHealthy()
	if err != nil {
		d.kill()
		return nil, 0, err
	}
	return d, up, nil
}

// replaySamples collects one serve-replay run's measurements.
type replaySamples struct {
	setup, report, rss              []float64 // the end-to-end metrics' samples
	ingest, fresh, lat              []float64 // ingest_rps, freshness_ms, idle read ms
	ckptS, ckptMB, ckptRSS, restore []float64
}

// serveReplay feeds the recorded week to a fresh daemon at full speed,
// again and again. The first replayCycles reps then also read /figures
// idle, checkpoint, kill the daemon and restart it from the checkpoint.
//
//	setup_s     daemon exec to /healthz answering (fresh start)
//	report_s    first feed byte to the first /figures that shows every record
//	peak_rss_mb the daemon's peak resident set through ingest and that
//	            /figures, on the reps that do not checkpoint
func serveReplay(r *run) error {
	rec, err := prepareRecording(r)
	if err != nil {
		return err
	}
	var s replaySamples
	start := time.Now()
	for i := 0; i < minReplayReps || time.Now().Before(r.deadline(start)); i++ {
		if err := replayRep(r, rec, i, &s); err != nil {
			return err
		}
	}

	r.set("setup_s", median(s.setup))
	r.set("report_s", median(s.report))
	r.set("peak_rss_mb", median(s.rss))
	r.detail("serve-replay seed=%d: %d reps", r.seed, len(s.setup))
	r.detail("  setup_s %.3f report_s %.3f peak_rss_mb %.0f", median(s.setup), median(s.report), median(s.rss))
	r.detail("  ingest_rps %.0f freshness_ms %.1f checkpoint_s %.3f checkpoint_mb %.1f restore_s %.3f checkpoint_rss_mb %.0f",
		median(s.ingest), median(s.fresh), median(s.ckptS), median(s.ckptMB), median(s.restore), median(s.ckptRSS))
	r.detail("  per rep: report_s %s peak_rss_mb %s", fmtList(s.report), fmtList(s.rss))
	servePercentiles(r, "idle reads", s.lat)
	return nil
}

// replayRep is one serve-replay rep on a fresh daemon.
func replayRep(r *run, rec *recording, i int, s *replaySamples) error {
	d, up, err := startHealthy(r)
	if err != nil {
		return err
	}
	s.setup = append(s.setup, up.Seconds())
	cycle := i < replayCycles
	before, err := replayOnce(r, d, rec, i, cycle, s)
	if peak := d.kill(); cycle {
		s.ckptRSS = append(s.ckptRSS, peak)
	} else {
		s.rss = append(s.rss, peak)
	}
	if err != nil || !cycle {
		return err
	}
	defer func() {
		for _, f := range []string{"ckpt", "ckpt.prev"} {
			os.Remove(filepath.Join(r.dir, f))
		}
	}()
	d2, up2, err := startHealthy(r)
	if err != nil {
		return err
	}
	defer d2.kill()
	s.restore = append(s.restore, up2.Seconds())
	st, err := d2.stats()
	r.op(err == nil && st.Restored, "rep %d: restarted daemon did not restore its checkpoint", i+1)
	after, err := d2.get("/figures")
	r.op(err == nil && bytes.Equal(after, before), "rep %d: restored /figures differs from /figures before the checkpoint", i+1)
	return nil
}

// replayOnce feeds the week to d at full speed and checks the figures it
// then serves; on a cycle rep it also reads them idle and checkpoints. It
// returns the /figures body served after ingest.
func replayOnce(r *run, d *daemon, rec *recording, i int, cycle bool, s *replaySamples) ([]byte, error) {
	c := newClock(time.Now())
	fr := sendFeed(d.feedAddr, rec.data, planFeed(len(rec.data), int(rec.records), fullSpeedChunk, 0), c)
	if fr.err != nil {
		return nil, fmt.Errorf("feed: %w", fr.err)
	}
	counted, got, ok, err := d.waitCounted(rec.records)
	if err != nil {
		return nil, err
	}
	r.op(ok, "rep %d: /stats counts %d records, the exporter sent %d", i+1, got, rec.records)
	before, err := d.get("/figures")
	done := time.Now()
	if err != nil {
		return nil, err
	}
	r.op(string(before) == rec.figures, "rep %d: daemon /figures after ingest differs from the batch collector's", i+1)
	s.ingest = append(s.ingest, float64(rec.records)/counted.Sub(c.start).Seconds())
	s.fresh = append(s.fresh, float64(done.Sub(fr.lastSent))/float64(time.Millisecond))
	s.report = append(s.report, done.Sub(c.start).Seconds())
	if !cycle {
		return before, nil
	}

	l, bad := readFigures(d, newClock(time.Now()), 0, replayReads, replayReadEvery,
		func(b []byte) bool { return bytes.Equal(b, before) })
	s.lat = append(s.lat, l...)
	r.op(bad == 0, "rep %d: %d of %d idle /figures reads failed or changed", i+1, bad, len(l))

	t := time.Now()
	body, err := d.post("/checkpoint")
	if err != nil {
		return nil, err
	}
	s.ckptS = append(s.ckptS, time.Since(t).Seconds())
	var ck struct{ Bytes int64 }
	if err := json.Unmarshal(body, &ck); err != nil {
		return nil, err
	}
	s.ckptMB = append(s.ckptMB, float64(ck.Bytes)/1e6)
	return before, nil
}

// serveDashboard paces the recorded week into a fresh daemon over
// dashboardSpan while a dashboard reads /figures every dashboardEvery,
// both on one fixed open-loop schedule.
//
//	setup_s     daemon exec to /healthz answering (median of dashboardSetups)
//	report_s    median /figures latency during ingest over every rep, timed
//	            from when each read was due
//	peak_rss_mb the daemon's peak resident set
func serveDashboard(r *run) error {
	rec, err := prepareRecording(r)
	if err != nil {
		return err
	}
	plan := planFeed(len(rec.data), int(rec.records), dashboardChunk, dashboardSpan)
	var setup, rss, lag, fresh, lat, late []float64
	for len(setup) < dashboardSetups-dashboardReps {
		d, up, err := startHealthy(r)
		if err != nil {
			return err
		}
		setup = append(setup, up.Seconds())
		d.kill()
	}
	start := time.Now()
	for i := 0; i < dashboardReps || time.Now().Before(r.deadline(start)); i++ {
		d, up, err := startHealthy(r)
		if err != nil {
			return err
		}
		setup = append(setup, up.Seconds())

		c := newClock(time.Now().Add(10 * time.Millisecond))
		feedDone := make(chan feedResult, 1)
		go func() { feedDone <- sendFeed(d.feedAddr, rec.data, plan, c) }()
		l, bad := readFigures(d, c, 0, dashboardReads, dashboardEvery, func(b []byte) bool { return len(b) > 0 })
		fr := <-feedDone
		if fr.err != nil {
			d.kill()
			return fmt.Errorf("feed: %w", fr.err)
		}
		lat = append(lat, l...)
		r.op(bad == 0, "rep %d: %d of %d /figures reads during ingest failed", i+1, bad, len(l))
		counted, got, ok, err := d.waitCounted(rec.records)
		if err != nil {
			d.kill()
			return err
		}
		r.op(ok, "rep %d: /stats counts %d records, the exporter sent %d", i+1, got, rec.records)
		final, err := d.get("/figures")
		done := time.Now()
		r.op(err == nil && string(final) == rec.figures, "rep %d: daemon /figures after paced ingest differs from the batch collector's", i+1)
		lag = append(lag, float64(counted.Sub(fr.lastDue))/float64(time.Millisecond))
		fresh = append(fresh, float64(done.Sub(fr.lastDue))/float64(time.Millisecond))
		rss = append(rss, d.kill())
		genLate, _, _ := percentile(c.lateness(), 99)
		late = append(late, genLate)
		r.op(genLate <= genLateBoundMs, "rep %d: generator p99 lateness %.1f ms exceeds its %d ms bound", i+1, genLate, genLateBoundMs)
	}

	r.set("setup_s", median(setup))
	r.set("report_s", median(lat)/1000)
	r.set("peak_rss_mb", median(rss))
	r.detail("serve-dashboard seed=%d: %d reps, feed %.0f records/s over %v, reads every %v",
		r.seed, len(rss), plan.rate(int(rec.records)), dashboardSpan, dashboardEvery)
	r.detail("  setup_s %.3f report_s %.4f peak_rss_mb %.0f lag_ms %.1f freshness_ms %.1f gen.late_ms %.2f",
		median(setup), median(lat)/1000, median(rss), median(lag), median(fresh), maxOf(late))
	servePercentiles(r, "reads during ingest", lat)
	return nil
}

// fmtList renders samples compactly for a detail line.
func fmtList(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return "[" + strings.Join(s, " ") + "]"
}
