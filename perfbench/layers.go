package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"iotmap"
	"iotmap/internal/collector"
	"iotmap/internal/core/flows"
	"iotmap/internal/figures"
	"iotmap/internal/isp"
	"iotmap/internal/netflow"
	"iotmap/internal/serve"
)

// cmd/paper's defaults.
const (
	paperScale = 0.1
	paperLines = 10000
)

// paperStudy is one of cmd/paper's two studies and the artefacts it prints.
type paperStudy struct {
	name    string
	cfg     iotmap.Config
	renders []func(*iotmap.System) string
}

// paperStudies mirrors cmd/paper: the February/March study with every
// table and figure, then the December 2021 outage week.
func paperStudies(seed int64) []paperStudy {
	return []paperStudy{
		{
			name: "primary",
			cfg:  iotmap.Config{Seed: seed, Scale: paperScale, Lines: paperLines},
			renders: []func(*iotmap.System) string{
				figures.Table1,
				func(*iotmap.System) string { return figures.Table2() },
				figures.Figure3, figures.Figure4, figures.VantagePointGain, figures.ValidationReport,
				figures.Figure5, figures.Figure6, figures.Figure7, figures.Figure8, figures.Figure9,
				figures.Figure10, figures.Figure11, figures.Figure12, figures.Figure13, figures.Figure14,
				figures.Section62,
			},
		},
		{
			name: "outage",
			cfg: iotmap.Config{Seed: seed, Scale: paperScale, Lines: paperLines,
				Days: iotmap.OutageStudyDays(), Outage: iotmap.AWSOutageScenario()},
			renders: []func(*iotmap.System) string{figures.Figure15, figures.Figure16},
		},
	}
}

// paperAllocs is what the paper pipeline allocated in two layers, in MB.
type paperAllocs struct{ discovery, traffic float64 }

// runPaperPipeline produces cmd/paper's report in process, with a span
// around each stage call and each study's rendering. It returns the
// report without its timing line.
func runPaperPipeline(t *tracer, seed int64) (string, paperAllocs, error) {
	var allocs paperAllocs
	var b strings.Builder
	fmt.Fprintf(&b, "=== Deep Dive into the IoT Backend Ecosystem — reproduction run ===\n")
	fmt.Fprintf(&b, "seed=%d scale=%.2f lines=%d\n\n", seed, paperScale, paperLines)
	ctx := context.Background()
	for _, st := range paperStudies(seed) {
		si := t.begin("study." + st.name)
		var sys *iotmap.System
		err := t.do("world.build", func() (err error) {
			sys, err = iotmap.New(st.cfg)
			return err
		})
		if err != nil {
			return "", allocs, err
		}
		a := allocMB()
		err = t.do("discovery.discover", func() error { return sys.Discover(ctx) })
		allocs.discovery += allocMB() - a
		if err == nil {
			err = t.do("validate.locate", sys.ValidateAndLocate)
		}
		if err == nil {
			a = allocMB()
			err = t.do("isp.traffic", sys.TrafficStudy)
			allocs.traffic += allocMB() - a
		}
		if err == nil {
			err = t.do("disrupt.analyze", sys.Disrupt)
		}
		if err == nil {
			t.call("figures.render", func() {
				for _, render := range st.renders {
					b.WriteString(render(sys) + "\n")
				}
			})
		}
		sys.Close()
		t.end(si)
		if err != nil {
			return "", allocs, err
		}
	}
	return b.String(), allocs, nil
}

// paperLayerSpans are the stage spans paper.residual_s is measured against.
var paperLayerSpans = []string{
	"world.build", "discovery.discover", "validate.locate", "isp.traffic", "disrupt.analyze", "figures.render",
}

// tracePaper runs cmd/paper once untraced, the same pipeline traced in
// process, the discovery stage again without the live scan, and the
// pipeline once more at GOMAXPROCS=1. All three reports must match.
func tracePaper(r *run, t *tracer) error {
	untraced, err := runBatch(nil, filepath.Join(r.bin, "paper"), paperArgs(r.seed)...)
	if err != nil {
		return err
	}
	want := digest(normaliseReport(string(untraced.out)))

	root := t.begin("paper")
	report, allocs, err := runPaperPipeline(t, r.seed)
	t.end(root)
	if err != nil {
		return err
	}
	r.op(digest(report) == want, "traced in-process report differs from cmd/paper's")
	traced := t.spans[root].dur()
	layers := 0.0
	for _, name := range paperLayerSpans {
		layers += t.total(name)
	}

	nolive := t.begin("nolive")
	for _, st := range paperStudies(r.seed) {
		cfg := st.cfg
		cfg.SkipLiveScan = true
		sys, err := iotmap.New(cfg)
		if err != nil {
			return err
		}
		err = t.do("discovery.nolive", func() error { return sys.Discover(context.Background()) })
		sys.Close()
		if err != nil {
			return err
		}
	}
	t.end(nolive)

	prev := runtime.GOMAXPROCS(1)
	start := time.Now()
	serial, _, err := runPaperPipeline(nil, r.seed)
	serialS := time.Since(start).Seconds()
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return err
	}
	r.op(digest(serial) == want, "GOMAXPROCS=1 in-process report differs from cmd/paper's")

	r.set("world.build_s", t.total("world.build"))
	r.set("discovery.discover_s", t.total("discovery.discover"))
	r.set("discovery.nolive_s", t.total("discovery.nolive"))
	r.set("validate.locate_s", t.total("validate.locate"))
	r.set("isp.traffic_s", t.total("isp.traffic"))
	r.set("disrupt.analyze_s", t.total("disrupt.analyze"))
	r.set("figures.render_ms", t.total("figures.render")*1000)
	r.set("discovery.alloc_mb", allocs.discovery)
	r.set("isp.alloc_mb", allocs.traffic)
	r.set("paper.residual_s", traced-layers)
	r.set("paper.serial_s", serialS)
	r.set("trace.overhead_s", traced-untraced.wall.Seconds())
	r.detail("paper: traced in-process %.3f s = layers %.3f s + residual %.3f s; untraced cmd/paper %.3f s; live scan share %.3f s",
		traced, layers, traced-layers, untraced.wall.Seconds(), t.total("discovery.discover")-t.total("discovery.nolive"))
	return nil
}

// layerInputs is the serve-sized world and its recorded week, shared by
// the serve, dashboard and batch-collector layer measurements.
type layerInputs struct {
	idx     *flows.BackendIndex
	days    []time.Time
	opts    flows.Options
	data    []byte
	records uint64
	figures string
	render  func(*flows.ContactCounter, *flows.Collector) string
}

// winOpts are the window's options: the wire path pre-scales, so the
// window runs at rate 1 (as serve.New sets it).
func (in *layerInputs) winOpts() flows.Options {
	o := in.opts
	o.SamplingRate = 1
	return o
}

// counted is a collector's V4Records+V6Records.
func counted(c *collector.Collector) uint64 {
	st := c.Stats()
	return st.V4Records + st.V6Records
}

// traceServe builds the daemon's index, records the week in process, and
// times each layer the daemon runs on it: frame parsing, window ingest,
// folds, rendering, the HTTP handler, snapshot, checkpoint and restore.
func traceServe(r *run, t *tracer) (*layerInputs, error) {
	root := t.begin("serve")
	defer t.end(root)
	in := &layerInputs{}
	var sys *iotmap.System
	var ispNet *isp.Network
	err := t.do("serve.index", func() (err error) {
		sys, err = iotmap.New(iotmap.Config{Seed: r.seed, Scale: serveScale, Lines: serveLines, ScannerThreshold: 100, SkipLiveScan: true})
		if err != nil {
			return err
		}
		if err = sys.Discover(context.Background()); err != nil {
			return err
		}
		if err = sys.ValidateAndLocate(); err != nil {
			return err
		}
		ispNet, in.idx, err = sys.TrafficInputs()
		return err
	})
	if err != nil {
		return nil, err
	}
	in.days = sys.World.Days
	in.opts = flows.Options{ScannerThreshold: 100, SamplingRate: ispNet.Cfg.SamplingRate, FocusAlias: "T1", FocusRegion: "us-east-1"}
	in.render = func(cc *flows.ContactCounter, col *flows.Collector) string {
		sys.Contacts = cc
		sys.Study = col.Study()
		return strings.Join([]string{figures.Figure5(sys), figures.Figure8(sys), figures.Figure9(sys), figures.Figure11(sys)}, "\n") + "\n"
	}

	var buf bytes.Buffer
	err = t.do("isp.record", func() error {
		ws, err := ispNet.SimulateLinesToWireFormat([]io.Writer{&buf}, 0, isp.WireDict)
		in.records = ws.V4Records + ws.V6Records
		return err
	})
	if err != nil {
		return nil, err
	}
	in.data = buf.Bytes()

	passes := 0
	err = t.do("netflow.decode", func() error {
		start := time.Now()
		for passes == 0 || time.Since(start) < 200*time.Millisecond {
			fr := netflow.NewBytesFrameReader(in.data)
			for {
				_, err := fr.Next()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					return err
				}
			}
			passes++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.set("netflow.decode_rps", float64(in.records)*float64(passes)/t.total("netflow.decode"))

	svc, err := serve.New(serve.Config{
		Index: in.idx, Days: in.days, Opts: in.opts,
		CheckpointPath: filepath.Join(r.dir, "trace-ckpt"), RenderFigures: in.render,
	})
	if err != nil {
		return nil, err
	}
	heap := heapMB()
	if err := t.do("collector.window", func() error {
		return svc.Collector().IngestNamedStream("recording", bytes.NewReader(in.data))
	}); err != nil {
		return nil, err
	}
	r.set("collector.window_rps", float64(in.records)/t.total("collector.window"))
	r.set("flows.window_heap_mb", heapMB()-heap)
	r.op(counted(svc.Collector()) == in.records, "window collector counted %d records, the exporter sent %d", counted(svc.Collector()), in.records)

	win := svc.Window()
	study := func() { win.Study() }
	t.call("flows.fold_cold", study)
	t.call("flows.fold_warm", study)
	cc, col := svc.Collector().Finalize()
	t.call("figures.serve_render", func() { in.figures = in.render(cc, col) })
	h := svc.Handler()
	var bodies []string
	for _, name := range []string{"serve.figures_first", "serve.figures_warm"} {
		t.call(name, func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/figures", nil))
			bodies = append(bodies, rec.Body.String())
		})
	}
	for i, b := range bodies {
		r.op(b == in.figures, "handler /figures read %d differs from the rendered window", i+1)
	}

	var snap bytes.Buffer
	if err := t.do("flows.snapshot", func() error { return flows.Snapshot(&snap, win) }); err != nil {
		return nil, err
	}
	if err := t.do("serve.checkpoint", func() error { _, err := svc.Checkpoint(); return err }); err != nil {
		return nil, err
	}
	var restored *flows.Window
	if err := t.do("flows.restore", func() (err error) {
		restored, err = flows.Restore(bytes.NewReader(snap.Bytes()), in.idx, in.winOpts())
		return err
	}); err != nil {
		return nil, err
	}
	rcc, rcol := restored.Merged()
	r.op(in.render(rcc, rcol) == in.figures, "restored window renders other figures than the window it was snapshot from")

	r.set("flows.fold_cold_ms", t.total("flows.fold_cold")*1000)
	r.set("flows.fold_warm_ms", t.total("flows.fold_warm")*1000)
	r.set("figures.serve_render_ms", t.total("figures.serve_render")*1000)
	r.set("serve.figures_warm_ms", t.total("serve.figures_warm")*1000)
	r.set("flows.snapshot_s", t.total("flows.snapshot"))
	r.set("flows.snapshot_mb", float64(snap.Len())/1e6)
	r.set("serve.checkpoint_s", t.total("serve.checkpoint"))
	r.set("flows.restore_s", t.total("flows.restore"))
	r.set("serve.index_s", t.total("serve.index"))
	return in, nil
}

// traceBusyFold replays the recording into a fresh window at the
// serve-dashboard's pace and folds the window on the dashboard's read
// schedule while the ingest runs.
func traceBusyFold(r *run, t *tracer, in *layerInputs) error {
	root := t.begin("dashboard")
	defer t.end(root)
	win, err := flows.NewWindow(in.idx, in.days[0], len(in.days)*24, in.winOpts())
	if err != nil {
		return err
	}
	col, err := collector.New(collector.Config{Index: in.idx, Days: in.days, Opts: in.opts, Window: win})
	if err != nil {
		return err
	}
	pr, pw := io.Pipe()
	ingested := make(chan error, 1)
	start := time.Now()
	go func() {
		err := col.IngestNamedStream("paced", pr)
		pr.CloseWithError(err) // unblocks the feeder if ingest gave up
		ingested <- err
	}()
	plan := planFeed(len(in.data), int(in.records), dashboardChunk, dashboardSpan)
	c := newClock(time.Now().Add(10 * time.Millisecond))
	fed := make(chan error, 1)
	go func() {
		for i := 0; i < plan.chunks; i++ {
			c.wait(plan.due(i))
			lo := i * plan.chunk
			if _, err := pw.Write(in.data[lo:min(lo+plan.chunk, len(in.data))]); err != nil {
				fed <- err
				return
			}
		}
		fed <- pw.Close()
	}()
	for j := 0; j < dashboardReads; j++ {
		c.wait(time.Duration(j) * dashboardEvery)
		t.call("flows.fold_busy", func() { win.Study() })
	}
	ferr := <-fed
	ierr := <-ingested
	t.add("collector.paced_ingest", start, time.Now())
	if ferr != nil || ierr != nil {
		return fmt.Errorf("paced ingest: feed %v, collector %v", ferr, ierr)
	}
	late, _, _ := percentile(c.lateness(), 99)
	r.op(late <= genLateBoundMs, "in-process generator p99 lateness %.1f ms exceeds its %d ms bound", late, genLateBoundMs)
	cc, fcol := col.Finalize()
	r.op(in.render(cc, fcol) == in.figures, "paced window renders other figures than the full-speed window")

	busy := t.durations("flows.fold_busy")
	r.set("flows.fold_busy_ms", median(busy)*1000)
	r.set("gen.late_ms", late)
	p90, beyond, _ := percentile(busy, 90)
	r.detail("dashboard: %d folds during paced ingest, median %.2f ms, p90 %.2f ms (%d beyond); generator p99 late %.2f ms",
		len(busy), median(busy)*1000, p90*1000, beyond, late)
	return nil
}

// traceSuite times the disruption suite's layers: the batch collector on
// the recording, a clean federation study under each data path, and the
// exporter on the suite's network.
func traceSuite(r *run, t *tracer, in *layerInputs) error {
	root := t.begin("suite")
	defer t.end(root)
	var sys *iotmap.System
	err := t.do("suite.setup", func() (err error) {
		if sys, err = iotmap.New(suiteConfig(r.seed)); err != nil {
			return err
		}
		return sys.RunAll(context.Background())
	})
	if err != nil {
		return err
	}
	defer sys.Close()
	federateForSuite(sys)

	bc, err := collector.New(collector.Config{Index: in.idx, Days: in.days, Opts: in.opts})
	if err != nil {
		return err
	}
	if err := t.do("collector.batch", func() error {
		return bc.IngestNamedStream("recording", bytes.NewReader(in.data))
	}); err != nil {
		return err
	}
	r.set("collector.batch_rps", float64(in.records)/t.total("collector.batch"))
	r.op(counted(bc) == in.records, "batch collector counted %d records, the exporter sent %d", counted(bc), in.records)
	cc, col := bc.Finalize()
	r.op(in.render(cc, col) == in.figures, "batch collector renders other figures than the window")

	var coverage []string
	for _, f := range []struct{ span, mode, format string }{
		{"federation.wire", iotmap.TrafficModeWire, iotmap.WireFormatV5},
		{"federation.dict", iotmap.TrafficModeWire, iotmap.WireFormatDict},
		{"federation.memory", iotmap.TrafficModeMemory, ""},
	} {
		sys.Federation = nil
		sys.Cfg.TrafficMode, sys.Cfg.WireFormat = f.mode, f.format
		if err := t.do(f.span, sys.FederationStudy); err != nil {
			return err
		}
		r.set(f.span+"_s", t.total(f.span))
		coverage = append(coverage, figures.FederationCoverage(sys))
	}
	r.op(coverage[0] == coverage[1] && coverage[1] == coverage[2], "federation coverage differs between the v5, dict and memory paths")

	ispNet, _, err := sys.TrafficInputs()
	if err != nil {
		return err
	}
	for _, f := range []struct {
		span   string
		format isp.WireFormat
	}{{"isp.export_v5", isp.WireV5}, {"isp.export_dict", isp.WireDict}} {
		writers := []io.Writer{io.Discard, io.Discard, io.Discard}
		if err := t.do(f.span, func() error {
			_, err := ispNet.SimulateLinesToWireFormat(writers, 0, f.format)
			return err
		}); err != nil {
			return err
		}
		r.set(f.span+"_s", t.total(f.span))
	}
	return nil
}
