package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"iotmap/internal/collector"
	"iotmap/internal/core/flows"
	"iotmap/internal/faultwire"
	"iotmap/internal/isp"
	"iotmap/internal/world"
)

// attachFileHTTP attaches a recorded file feed over the API.
func attachFileHTTP(t testing.TB, srv *httptest.Server, path, name, vantage string) {
	t.Helper()
	body := `{"path":` + jsonStr(path) + `,"name":` + jsonStr(name) + `,"vantage":` + jsonStr(vantage) + `}`
	resp, err := srv.Client().Post(srv.URL+"/streams/file", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("attach %s: %d", path, resp.StatusCode)
	}
}

func postCheckpoint(t testing.TB, srv *httptest.Server) {
	t.Helper()
	resp, err := srv.Client().Post(srv.URL+"/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("checkpoint: %d", resp.StatusCode)
	}
}

// TestCheckpointCRCFallback: a torn/corrupt newest checkpoint must not
// take the daemon down — restore falls back to the ".prev" rotation
// keep with a warning and a counter bump, and the restored figures
// match the state both checkpoints captured.
func TestCheckpointCRCFallback(t *testing.T) {
	f := buildFixture(t)
	dir := t.TempDir()
	feed := filepath.Join(dir, "feed.nf")
	if err := os.WriteFile(feed, f.rec, 0o644); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, "ckpt")

	s1 := f.service(t, ckpt)
	srv := httptest.NewServer(s1.Handler())
	attachFileHTTP(t, srv, feed, "feed", "isp-a")
	waitSettled(t, srv)
	figs := get(t, srv, "/figures")
	// Two checkpoints of the same settled state: the rotation keep and
	// the newest file are equivalent restore points.
	postCheckpoint(t, srv)
	postCheckpoint(t, srv)
	srv.Close()
	if _, err := os.Stat(ckpt + prevSuffix); err != nil {
		t.Fatalf("rotation keep missing: %v", err)
	}

	// Corrupt the newest checkpoint's tail — a torn write.
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(ckpt, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var warned bool
	s2, err := New(Config{
		Index: f.idx, Days: f.days, Opts: f.opts,
		Policy: collector.DropFrame, CheckpointPath: ckpt,
		RenderFigures: renderFigures,
		Logf: func(format string, args ...any) {
			if strings.Contains(format, "WARNING") {
				warned = true
			}
		},
	})
	if err != nil {
		t.Fatalf("restore with intact .prev failed: %v", err)
	}
	if !s2.Restored {
		t.Fatal("service did not restore")
	}
	if s2.RestoredFrom != ckpt+prevSuffix {
		t.Fatalf("RestoredFrom = %q, want %q", s2.RestoredFrom, ckpt+prevSuffix)
	}
	if s2.CheckpointFallbacks != 1 {
		t.Fatalf("CheckpointFallbacks = %d, want 1", s2.CheckpointFallbacks)
	}
	if !warned {
		t.Fatal("fallback restore logged no warning")
	}
	srv2 := httptest.NewServer(s2.Handler())
	defer srv2.Close()
	if got := get(t, srv2, "/figures"); got != figs {
		t.Fatalf("fallback figures differ:\n--- before\n%s\n--- after\n%s", figs, got)
	}
	var stats struct {
		Fallbacks uint64 `json:"checkpointFallbacks"`
		From      string `json:"restoredFrom"`
	}
	if err := json.Unmarshal([]byte(get(t, srv2, "/stats")), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Fallbacks != 1 || stats.From != ckpt+prevSuffix {
		t.Fatalf("stats fallback fields wrong: %+v", stats)
	}

	// A newest file that vanished mid-rotation falls back the same way.
	if err := os.Remove(ckpt); err != nil {
		t.Fatal(err)
	}
	s3 := f.service(t, ckpt)
	if !s3.Restored || s3.CheckpointFallbacks != 1 || s3.RestoredFrom != ckpt+prevSuffix {
		t.Fatalf("mid-rotation fallback wrong: restored=%v fallbacks=%d from=%q",
			s3.Restored, s3.CheckpointFallbacks, s3.RestoredFrom)
	}

	// Both copies unreadable is a hard error, not a silent fresh start.
	if err := os.WriteFile(ckpt, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt+prevSuffix, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{
		Index: f.idx, Days: f.days, Opts: f.opts,
		Policy: collector.DropFrame, CheckpointPath: ckpt,
		RenderFigures: renderFigures,
	}); err == nil {
		t.Fatal("restore with both copies corrupt did not fail")
	}
}

// TestCheckpointV1ReadCompat: a version-1 container ("IOTCKPT1",
// 8-byte section headers, no CRC) still restores — the format bump is
// backward compatible one version out.
func TestCheckpointV1ReadCompat(t *testing.T) {
	f := buildFixture(t)
	dir := t.TempDir()
	feed := filepath.Join(dir, "feed.nf")
	if err := os.WriteFile(feed, f.rec, 0o644); err != nil {
		t.Fatal(err)
	}
	s1 := f.service(t, filepath.Join(dir, "unused"))
	srv := httptest.NewServer(s1.Handler())
	attachFileHTTP(t, srv, feed, "feed", "isp-a")
	waitSettled(t, srv)
	figs := get(t, srv, "/figures")
	srv.Close()

	// Hand-write the v1 container from the live state.
	var buf bytes.Buffer
	buf.WriteString(checkpointMagicV1)
	putV1 := func(tag string, body []byte) {
		buf.WriteString(tag)
		var ln [4]byte
		binary.LittleEndian.PutUint32(ln[:], uint32(len(body)))
		buf.Write(ln[:])
		buf.Write(body)
	}
	var sec bytes.Buffer
	if err := flows.Snapshot(&sec, s1.win); err != nil {
		t.Fatal(err)
	}
	putV1(sectionWindow, sec.Bytes())
	sec.Reset()
	if err := encodeDicts(&sec, s1.col.DictStates()); err != nil {
		t.Fatal(err)
	}
	putV1(sectionDicts, sec.Bytes())
	ckpt := filepath.Join(dir, "ckpt-v1")
	if err := os.WriteFile(ckpt, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := f.service(t, ckpt)
	if !s2.Restored || s2.CheckpointFallbacks != 0 || s2.RestoredFrom != ckpt {
		t.Fatalf("v1 restore wrong: restored=%v fallbacks=%d from=%q",
			s2.Restored, s2.CheckpointFallbacks, s2.RestoredFrom)
	}
	srv2 := httptest.NewServer(s2.Handler())
	defer srv2.Close()
	if got := get(t, srv2, "/figures"); got != figs {
		t.Fatalf("v1 restore figures differ:\n--- v2 service\n%s\n--- v1 restore\n%s", figs, got)
	}
}

// TestWindowVantageDegraded: GET /window groups settled feeds by
// vantage and flags a vantage whose feeds missed study hours a sibling
// vantage covered — the daemon-side twin of the federation coverage
// report's degraded annotation.
func TestWindowVantageDegraded(t *testing.T) {
	// The hour-coverage comparison needs the v5 encoding: fault rules
	// and liveness both clock hours from v5 frame headers.
	w, err := world.Build(world.Config{Seed: 23, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	n, err := isp.NewNetwork(isp.Config{Seed: 23, Lines: 300}, w)
	if err != nil {
		t.Fatal(err)
	}
	f := buildFixture(t)
	var rec5 bytes.Buffer
	if _, err := n.SimulateLinesToWireFormat([]io.Writer{&rec5}, 0, isp.WireV5); err != nil {
		t.Fatal(err)
	}
	// isp-b's copy of the feed dies cleanly at hour 96 — the exporter
	// sat inside the blast radius.
	sc := &faultwire.Scenario{Seed: 1, Start: w.Days[0], Rules: []faultwire.Rule{
		{Stream: -1, FromHour: 96, Faults: faultwire.Faults{Kill: true, KillClean: true}},
	}}
	dead, err := io.ReadAll(sc.Wrap(0, "isp-b", bytes.NewReader(rec5.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	if len(dead) == 0 || len(dead) >= rec5.Len() {
		t.Fatalf("feed death produced %d of %d bytes", len(dead), rec5.Len())
	}

	dir := t.TempDir()
	healthy := filepath.Join(dir, "healthy.nf")
	truncated := filepath.Join(dir, "dead.nf")
	if err := os.WriteFile(healthy, rec5.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(truncated, dead, 0o644); err != nil {
		t.Fatal(err)
	}

	s := f.service(t, "")
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	attachFileHTTP(t, srv, healthy, "feed-a", "isp-a")
	attachFileHTTP(t, srv, truncated, "feed-b", "isp-b")
	waitSettled(t, srv)

	var win struct {
		Vantages []vantageWindow `json:"vantages"`
	}
	if err := json.Unmarshal([]byte(get(t, srv, "/window")), &win); err != nil {
		t.Fatal(err)
	}
	if len(win.Vantages) != 2 {
		t.Fatalf("vantages = %+v, want 2 rows", win.Vantages)
	}
	rows := map[string]vantageWindow{}
	for _, v := range win.Vantages {
		rows[v.Vantage] = v
	}
	a, b := rows["isp-a"], rows["isp-b"]
	if a.Vantage == "" || b.Vantage == "" {
		t.Fatalf("vantage rows missing: %+v", win.Vantages)
	}
	if a.Degraded {
		t.Fatalf("healthy vantage flagged degraded: %+v", a)
	}
	if !b.Degraded {
		t.Fatalf("vantage that lost its feed not flagged degraded: %+v", b)
	}
	if b.HoursCovered >= a.HoursCovered {
		t.Fatalf("dead feed covers %d hours, healthy %d", b.HoursCovered, a.HoursCovered)
	}
}

// TestAttachDialReconnects: a dial feed whose transport dies with an
// error redials through collector.IngestReconnecting and finishes the
// stream — the daemon survives a flapping exporter without operator
// action.
func TestAttachDialReconnects(t *testing.T) {
	f := buildFixture(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		// First connection: reset with no data (a dying exporter).
		c1, err := ln.Accept()
		if err != nil {
			return
		}
		if tc, ok := c1.(*net.TCPConn); ok {
			tc.SetLinger(0) //nolint:errcheck
		}
		c1.Close()
		// Second connection: the full recording.
		c2, err := ln.Accept()
		if err != nil {
			return
		}
		c2.Write(f.rec) //nolint:errcheck
		c2.Close()
	}()

	s := f.service(t, "")
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	if _, err := s.AttachDial(ln.Addr().String(), "flappy", "isp-a"); err != nil {
		t.Fatal(err)
	}
	waitSettled(t, srv)

	var stats struct {
		Wire collector.Stats `json:"wire"`
	}
	if err := json.Unmarshal([]byte(get(t, srv, "/stats")), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Wire.Reconnects == 0 {
		t.Fatalf("no reconnects counted: %+v", stats.Wire)
	}
	if stats.Wire.BatchRecords == 0 {
		t.Fatalf("reconnected feed ingested nothing: %+v", stats.Wire)
	}
}

// TestRestoreRefusesWindowSpanChange: a daemon restarted with a
// different window span refuses the checkpoint, naming both spans,
// instead of silently serving the checkpoint's span.
func TestRestoreRefusesWindowSpanChange(t *testing.T) {
	f := buildFixture(t)
	ckpt := filepath.Join(t.TempDir(), "ckpt")
	if _, err := f.service(t, ckpt).Checkpoint(); err != nil {
		t.Fatal(err)
	}
	_, err := New(Config{Index: f.idx, Days: f.days, Opts: f.opts,
		Policy: collector.DropFrame, CheckpointPath: ckpt, WindowHours: 48})
	whole := fmt.Sprintf("%d-hour", len(f.days)*24)
	if err == nil || !strings.Contains(err.Error(), whole) || !strings.Contains(err.Error(), "48 hours") {
		t.Fatalf("restore under -window 48 of a %s checkpoint: err %v", whole, err)
	}
	if s := f.service(t, ckpt); !s.Restored {
		t.Fatal("restore under the checkpoint's own span did not restore")
	}
}

// TestStreamsReadWhileSettling: GET /streams is served while feeds
// settle. Under -race this pins that the handler encodes copies taken
// under the registry lock, not the entries settle rewrites under it.
func TestStreamsReadWhileSettling(t *testing.T) {
	f := buildFixture(t)
	s := f.service(t, "")
	junk := filepath.Join(t.TempDir(), "junk.nf")
	if err := os.WriteFile(junk, []byte("not a framed stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	streams := func() []Feed {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/streams", nil))
		var out struct {
			Feeds []Feed `json:"feeds"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Error(err)
		}
		return out.Feeds
	}
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
				streams()
			}
		}
	}()
	const feeds = 16
	for i := 0; i < feeds; i++ {
		if _, err := s.AttachFile(junk, fmt.Sprintf("junk-%d", i), ""); err != nil {
			t.Fatal(err)
		}
	}
	s.wg.Wait()
	close(stop)
	<-stopped
	got := streams()
	if len(got) != feeds {
		t.Fatalf("/streams lists %d feeds, want %d", len(got), feeds)
	}
	for _, fd := range got {
		if fd.Status == "running" {
			t.Fatalf("feed %d still running after its ingest returned", fd.ID)
		}
	}
}
