package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"iotmap"
	"iotmap/internal/figures"
	"iotmap/internal/scenario"
)

const (
	suiteSetups  = 3 // New+RunAll repetitions per run; setup_s is their median
	minSuiteReps = 3
	suiteScale   = 0.1
	suiteLines   = 10000
)

// suiteConfig is the outage week cmd/iotdisrupt studies, with the live
// scan skipped.
func suiteConfig(seed int64) iotmap.Config {
	return iotmap.Config{
		Seed: seed, Scale: suiteScale, Lines: suiteLines, SkipLiveScan: true,
		Days: iotmap.OutageStudyDays(), Outage: iotmap.AWSOutageScenario(),
	}
}

// federateForSuite turns a finished outage-week System into the
// cmd/iotdisrupt -suite federation: three vantages on the v5 wire, three
// streams each, DropFrame.
func federateForSuite(sys *iotmap.System) {
	sys.Cfg.Outage = nil
	sys.Cfg.TrafficMode = iotmap.TrafficModeWire
	sys.Cfg.WireFormat = iotmap.WireFormatV5
	sys.Cfg.WireStreams = 3
	sys.Cfg.WirePolicy = iotmap.WireDropFrame
	sys.Cfg.Vantages = []iotmap.VantageSpec{
		{Name: "isp-a"},
		{Name: "isp-b", Lines: suiteLines / 2},
		{Name: "ixp", SamplingRate: 1024, ScannerFraction: -1},
	}
}

// suiteReport renders what cmd/iotdisrupt -suite prints for a result.
func suiteReport(sys *iotmap.System, res *iotmap.SuiteStudyResult) string {
	var b strings.Builder
	b.WriteString(figures.FederationCoverage(sys) + "\n")
	b.WriteString(figures.SuiteDeltas(res) + "\n")
	last := res.Scenarios[len(res.Scenarios)-1]
	tmp := *sys
	tmp.Federation = last.Federation
	b.WriteString(figures.FederationCoverage(&tmp) + "\n")
	return b.String()
}

// suiteLedger renders every scenario's fault-ledger totals.
func suiteLedger(res *iotmap.SuiteStudyResult) string {
	var b strings.Builder
	for _, sc := range res.Scenarios {
		fmt.Fprintf(&b, "%s:", sc.Name)
		if sc.FaultTotals != nil {
			fmt.Fprintf(&b, "%+v", *sc.FaultTotals)
		}
		b.WriteString(";")
	}
	return b.String()
}

// suiteOutcome is what the suite child reports to its parent.
type suiteOutcome struct {
	Setup   []float64 `json:"setup_s"`
	Suite   []float64 `json:"suite_s"`
	Digests []string  `json:"digests"`
	Ledgers []string  `json:"ledgers"`
}

// runSuiteChild sets the suite up, runs it for the measured phase and
// prints its outcome as JSON.
func runSuiteChild(seed int64, seconds time.Duration) error {
	var out suiteOutcome
	var sys *iotmap.System
	for i := 0; i < suiteSetups; i++ {
		t := time.Now()
		s, err := iotmap.New(suiteConfig(seed))
		if err != nil {
			return err
		}
		if err := s.RunAll(context.Background()); err != nil {
			return err
		}
		out.Setup = append(out.Setup, time.Since(t).Seconds())
		if sys != nil {
			sys.Close()
		}
		sys = s
	}
	defer sys.Close()
	federateForSuite(sys)
	suite := scenario.Presets(seed)[scenario.PresetPaperWeek]
	start := time.Now()
	for i := 0; i < minSuiteReps || time.Since(start) < seconds; i++ {
		sys.Federation = nil // the baseline federation is part of the suite
		t := time.Now()
		res, err := sys.DisruptionSuite(suite)
		if err != nil {
			return err
		}
		out.Suite = append(out.Suite, time.Since(t).Seconds())
		out.Digests = append(out.Digests, digest(suiteReport(sys, res)))
		out.Ledgers = append(out.Ledgers, suiteLedger(res))
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// disruptSuite runs System.DisruptionSuite(paper-week) on the
// cmd/iotdisrupt -suite federation in a child process.
//
//	setup_s     New+RunAll of the outage week (median of suiteSetups)
//	report_s    one DisruptionSuite call, the baseline federation included
//	peak_rss_mb the child's peak resident set
func disruptSuite(r *run) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	br, err := runBatch(nil, self, "-suite-child",
		"-seed", strconv.FormatInt(r.seed, 10), "-seconds", strconv.Itoa(int(r.seconds/time.Second)))
	if err != nil {
		return err
	}
	var out suiteOutcome
	if err := json.Unmarshal(br.out, &out); err != nil {
		return fmt.Errorf("suite child output: %w", err)
	}
	if len(out.Suite) == 0 || len(out.Setup) == 0 {
		return fmt.Errorf("suite child measured nothing")
	}
	for i := range out.Suite {
		r.op(out.Digests[i] == out.Digests[0], "suite rep %d: report digest %.12s differs from rep 1's %.12s", i+1, out.Digests[i], out.Digests[0])
		r.op(out.Ledgers[i] == out.Ledgers[0], "suite rep %d: fault ledger %q differs from rep 1's %q", i+1, out.Ledgers[i], out.Ledgers[0])
	}
	r.set("setup_s", median(out.Setup))
	r.set("report_s", median(out.Suite))
	r.set("peak_rss_mb", br.rssMB)
	r.detail("disrupt-suite seed=%d: %d reps, suite_s median %.3f (min %.3f max %.3f), setup_s %.3f, digest %.12s, ledger %s",
		r.seed, len(out.Suite), median(out.Suite), minOf(out.Suite), maxOf(out.Suite), median(out.Setup), out.Digests[0], out.Ledgers[0])
	return nil
}
