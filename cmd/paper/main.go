// Command paper regenerates every table and figure of the reproduction
// in one run: the February/March 2022 study (Tables 1-2, Figures 3-14,
// the §3.3/§3.4 checks) followed by the December 2021 outage study
// (Figures 15-16, §6.2). The report goes to stdout or -o FILE; the
// run's wall-clock time goes to stderr, so the report itself is a pure
// function of the flags.
//
// Usage:
//
//	paper [-seed N] [-scale F] [-lines N] [-o report.txt]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"iotmap"
	"iotmap/internal/figures"
)

func main() {
	seed := flag.Int64("seed", 1, "world seed")
	scale := flag.Float64("scale", 0.1, "deployment scale (1.0 = paper-sized)")
	lines := flag.Int("lines", 10000, "simulated subscriber lines")
	outPath := flag.String("o", "", "write the report to a file instead of stdout")
	flag.Parse()

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		out = f
	}

	start := time.Now()
	if err := run(out, *seed, *scale, *lines); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "report generated in %v\n", time.Since(start).Round(time.Millisecond))
}

// run writes the whole report — both studies, live scan on — to out.
func run(out io.Writer, seed int64, scale float64, lines int) error {
	ctx := context.Background()

	fmt.Fprintf(out, "=== Deep Dive into the IoT Backend Ecosystem — reproduction run ===\n")
	fmt.Fprintf(out, "seed=%d scale=%.2f lines=%d\n\n", seed, scale, lines)

	// Study 1: the primary Feb 28 - Mar 7 2022 week.
	sys, err := iotmap.New(iotmap.Config{Seed: seed, Scale: scale, Lines: lines})
	if err != nil {
		return err
	}
	if err := sys.RunAll(ctx); err != nil {
		sys.Close()
		return err
	}
	for _, render := range []func() string{
		func() string { return figures.Table1(sys) },
		figures.Table2,
		func() string { return figures.Figure3(sys) },
		func() string { return figures.Figure4(sys) },
		func() string { return figures.VantagePointGain(sys) },
		func() string { return figures.ValidationReport(sys) },
		func() string { return figures.Figure5(sys) },
		func() string { return figures.Figure6(sys) },
		func() string { return figures.Figure7(sys) },
		func() string { return figures.Figure8(sys) },
		func() string { return figures.Figure9(sys) },
		func() string { return figures.Figure10(sys) },
		func() string { return figures.Figure11(sys) },
		func() string { return figures.Figure12(sys) },
		func() string { return figures.Figure13(sys) },
		func() string { return figures.Figure14(sys) },
		func() string { return figures.Section62(sys) },
	} {
		fmt.Fprintln(out, render())
	}
	sys.Close()

	// Study 2: the December 2021 outage week.
	outSys, err := iotmap.New(iotmap.Config{
		Seed:   seed,
		Scale:  scale,
		Lines:  lines,
		Days:   iotmap.OutageStudyDays(),
		Outage: iotmap.AWSOutageScenario(),
	})
	if err != nil {
		return err
	}
	defer outSys.Close()
	if err := outSys.RunAll(ctx); err != nil {
		return err
	}
	fmt.Fprintln(out, figures.Figure15(outSys))
	fmt.Fprintln(out, figures.Figure16(outSys))
	return nil
}
