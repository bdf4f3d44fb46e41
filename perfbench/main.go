// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload of the reproduction (the paper report, the collector daemon
// under replay or dashboard load, or the disruption suite) in fresh child
// processes built from this checkout, checks what they output, and prints
// the metrics as one JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload serve-replay --seed 3 --seconds 20 --trace 0
//
// With --trace 1 it instead runs the traced run: calls into each layer's
// public functions, timed as spans from this package, for every layer
// metric. See README.md for the workloads and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run reports, whatever the
// workload: each workload defines them for its own job (README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"report_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics every traced run reports.
var perLayer = []metricDef{
	// paper-report layers.
	{"world.build_s", "s"},
	{"discovery.discover_s", "s"},
	{"discovery.nolive_s", "s"},
	{"validate.locate_s", "s"},
	{"isp.traffic_s", "s"},
	{"disrupt.analyze_s", "s"},
	{"figures.render_ms", "ms"},
	{"discovery.alloc_mb", "MB"},
	{"isp.alloc_mb", "MB"},
	{"paper.residual_s", "s"},
	{"paper.serial_s", "s"},
	{"trace.overhead_s", "s"},
	// serve-replay layers.
	{"netflow.decode_rps", "rec/s"},
	{"collector.window_rps", "rec/s"},
	{"flows.fold_cold_ms", "ms"},
	{"flows.fold_warm_ms", "ms"},
	{"figures.serve_render_ms", "ms"},
	{"serve.figures_warm_ms", "ms"},
	{"flows.snapshot_s", "s"},
	{"flows.snapshot_mb", "MB"},
	{"serve.checkpoint_s", "s"},
	{"flows.restore_s", "s"},
	{"serve.index_s", "s"},
	{"flows.window_heap_mb", "MB"},
	// serve-dashboard layers.
	{"flows.fold_busy_ms", "ms"},
	{"gen.late_ms", "ms"},
	// disrupt-suite layers.
	{"collector.batch_rps", "rec/s"},
	{"federation.wire_s", "s"},
	{"federation.dict_s", "s"},
	{"federation.memory_s", "s"},
	{"isp.export_v5_s", "s"},
	{"isp.export_dict_s", "s"},
}

// workloads maps each workload name to its untraced run.
var workloads = map[string]func(*run) error{
	"paper-report":    paperReport,
	"serve-replay":    serveReplay,
	"serve-dashboard": serveDashboard,
	"disrupt-suite":   disruptSuite,
}

// run is one benchmark invocation's state: its inputs, where it may
// write, the operations it attempted and the metrics it measured.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	bin      string // directory holding the built binaries
	dir      string // scratch directory for this run, removed at exit

	attempted, failed int
	metrics           map[string]float64
}

// op counts one checked operation; a false ok is a failed operation.
func (r *run) op(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Printf("FAILED: "+format+"\n", args...)
	}
}

// set records a metric value.
func (r *run) set(name string, v float64) { r.metrics[name] = v }

// detail prints one human-readable line before the result.
func (r *run) detail(format string, args ...any) { fmt.Printf(format+"\n", args...) }

// deadline is when the measured phase of the run ends.
func (r *run) deadline(start time.Time) time.Time { return start.Add(r.seconds) }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed the workload's inputs derive from")
	seconds := flag.Int("seconds", 20, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the untraced workload")
	suiteChild := flag.Bool("suite-child", false, "internal: be disrupt-suite's child process")
	flag.Parse()

	if *suiteChild {
		if err := runSuiteChild(*seed, time.Duration(*seconds)*time.Second); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	fn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q (have %s)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if err := execute(fn, *workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// execute runs a workload (or the traced run) and prints the result line.
func execute(fn func(*run) error, workload string, seed int64, seconds time.Duration, traced bool) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bin := filepath.Dir(exe)
	for _, name := range []string{"paper", "iotcollect"} {
		if _, err := os.Stat(filepath.Join(bin, name)); err != nil {
			return fmt.Errorf("binary %s not built next to perfbench: %w", name, err)
		}
	}
	dir, err := filepath.Abs(filepath.Join(".bench_build", "run", fmt.Sprintf("%s-s%d-p%d", workload, seed, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	r := &run{workload: workload, seed: seed, seconds: seconds, bin: bin, dir: dir, metrics: map[string]float64{}}
	want := endToEnd
	if traced {
		fn, want = tracedRun, perLayer
	}
	if err := fn(r); err != nil {
		return err
	}
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	res.Correct = r.failed == 0 && r.attempted > 0
	for _, m := range want {
		v, ok := r.metrics[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
