package flows

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"iotmap/internal/isp"
	"iotmap/internal/netflow"
)

// restoreAllocPerByte and restoreAllocSlack bound what RestoreWireTables
// may allocate for an input of n bytes: restoreAllocPerByte*n +
// restoreAllocSlack. The per-byte multiple covers the densest encoding,
// a lost line entry — one input byte that becomes a 40-byte table entry
// plus its slot, grown by append — and the slack covers the fixed
// pre-sizing (snapPrealloc entries per table) and the empty tables.
const (
	restoreAllocPerByte = 256
	restoreAllocSlack   = 1 << 20
)

// wireTablesSeeds returns real WireTables.Snapshot outputs: empty
// tables, tables with lost (gap-filled) line and backend entries, and
// an unindexed backend.
func wireTablesSeeds(t testing.TB, sink Sink, idx *BackendIndex) [][]byte {
	t.Helper()
	var out [][]byte
	snap := func(tables *WireTables) {
		var buf bytes.Buffer
		if err := tables.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	snap(sink.NewWireTables())

	tables := sink.NewWireTables()
	lines := []netip.Addr{isp.LineV4Addr(0, 7), isp.LineV6Addr(1, 9), netip.MustParseAddr("10.1.2.3")}
	if err := tables.AddLines(2, lines); err != nil {
		t.Fatal(err)
	}
	backs := append([]netip.Addr{netip.MustParseAddr("203.0.113.9")}, idx.addrs[:5]...)
	if err := tables.AddBackends(1, backs); err != nil {
		t.Fatal(err)
	}
	snap(tables)
	return out
}

// FuzzRestoreWireTables: a wire-tables checkpoint this process did not
// write restores or fails with an error — never a panic — and never
// allocates more than a fixed multiple of its own length, whatever its
// length fields claim.
func FuzzRestoreWireTables(f *testing.F) {
	fx := buildDenseFixture(17)
	win, err := NewWindow(fx.idx, fx.days[0], 48, fx.opts)
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range wireTablesSeeds(f, win, fx.idx) {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
		f.Add(seed[:len(seed)-1])
	}
	// A bare header claiming 2^24 lines; one claiming the most backends
	// the count guard lets through, then ending; and the densest valid
	// encoding, 2^16 lost line entries, which sits near the bound.
	hdr := append([]byte(wireTablesMagic), 1, 0)
	f.Add(binary.LittleEndian.AppendUint32(append([]byte(nil), hdr...), 1<<24))
	f.Add(binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(append([]byte(nil), hdr...), 0), maxWireDictEntries))
	dense := binary.LittleEndian.AppendUint32(append([]byte(nil), hdr...), 1<<16)
	dense = append(dense, make([]byte, 1<<16)...)
	f.Add(binary.LittleEndian.AppendUint32(dense, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tables, err := RestoreWireTables(bytes.NewReader(data), win)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(restoreAllocPerByte*len(data)+restoreAllocSlack) {
			t.Fatalf("restoring %d bytes allocated %d bytes (bound %d per byte + %d)", len(data), alloc, restoreAllocPerByte, restoreAllocSlack)
		}
		if err != nil {
			if tables != nil {
				t.Fatal("failed restore returned tables")
			}
			return
		}
		// Whatever restored must checkpoint and restore to itself.
		var buf bytes.Buffer
		if err := tables.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := RestoreWireTables(bytes.NewReader(buf.Bytes()), win)
		if err != nil {
			t.Fatalf("re-snapshot of restored tables does not restore: %v", err)
		}
		if !reflect.DeepEqual(again.lines, tables.lines) || !reflect.DeepEqual(again.backends, tables.backends) {
			t.Fatal("restored tables changed across a snapshot round trip")
		}
	})
}

// iwinHoursAt is the offset of the u32 window-hours field in an IWIN
// header: magic, version, then the index and options fingerprints.
const iwinHoursAt = len(snapshotMagic) + 2 + 8 + 8

// windowRingBytes is what NewWindow allocates for an hours-long ring
// before any bucket exists: the frame ledger's per-hour liveness and
// record counts, and one bucket pointer per hour in every shard.
func windowRingBytes(hours int) int {
	return hours * (1 + 8 + 8*maxWindowShards)
}

// snapshotBytes returns Snapshot's encoding of win.
func snapshotBytes(t testing.TB, win *Window) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Snapshot(&buf, win); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// windowSeeds returns real Snapshot outputs over f: a half-fed window
// under a focus alias, an empty window, the empty window's header
// patched to claim a 24,000,000-hour span, and a window whose first
// hour holds one row over 1,000 ports ahead of single-record hours
// (restore must not presize those small hours like the wide one).
func windowSeeds(t testing.TB, f denseFixture, opts Options) [][]byte {
	t.Helper()
	newWin := func() *Window {
		win, err := NewWindow(f.idx, f.days[0], 48, opts)
		if err != nil {
			t.Fatal(err)
		}
		return win
	}
	win := newWin()
	empty := snapshotBytes(t, win)
	flushes := hourFlushes(f.recs, f.days[0])
	feed := newRecordFeed(win, f.days[0])
	for _, flush := range flushes[:len(flushes)/2] {
		feed.flush(flush)
	}
	patched := append([]byte(nil), empty...)
	binary.LittleEndian.PutUint32(patched[iwinHoursAt:], 24_000_000)

	wide := newWin()
	feed = newRecordFeed(wide, f.days[0])
	line := isp.LineV4Addr(0, 7)
	var recs []netflow.Record
	for p := 0; p < 1000; p++ {
		recs = append(recs, netflow.Record{Src: f.idx.addrs[0], Dst: line, SrcPort: uint16(1000 + p), Bytes: 100, Start: f.days[0]})
	}
	feed.flush(recs)
	for h := 1; h < 48; h++ {
		feed.flush([]netflow.Record{{Src: f.idx.addrs[1], Dst: line, Bytes: 100, Start: f.days[0].Add(time.Duration(h) * time.Hour)}})
	}
	return [][]byte{snapshotBytes(t, win), empty, patched, snapshotBytes(t, wide)}
}

// TestRestoreRefusesOversizedWindow: a snapshot header claiming a span
// past maxWindowHours fails before the ring is allocated, instead of
// sizing the window by the claim.
func TestRestoreRefusesOversizedWindow(t *testing.T) {
	f := buildDenseFixture(11)
	patched := windowSeeds(t, f, f.opts)[2]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	win, err := Restore(bytes.NewReader(patched), f.idx, f.opts)
	runtime.ReadMemStats(&after)
	if err == nil || win != nil || !strings.Contains(err.Error(), "24000000 hours") {
		t.Fatalf("restore of a 24,000,000-hour header: window %v, err %v", win != nil, err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > restoreAllocSlack {
		t.Fatalf("refused restore allocated %d bytes", alloc)
	}
}

// TestRestoreRejectsPaddingBits: a contact bitset with a bit set past
// the last backend fails to restore, instead of indexing past the
// backend tables.
func TestRestoreRejectsPaddingBits(t *testing.T) {
	f := buildDenseFixture(11)
	f.idx.Build()
	if f.idx.words != 1 || len(f.idx.addrs) >= 64 {
		t.Fatalf("fixture has %d backends; the test needs padding in a one-word bitset", len(f.idx.addrs))
	}
	win, err := NewWindow(f.idx, f.days[0], 48, f.opts)
	if err != nil {
		t.Fatal(err)
	}
	newRecordFeed(win, f.days[0]).flush([]netflow.Record{{
		Src: f.idx.addrs[0], Dst: isp.LineV4Addr(0, 7), Bytes: 100, Start: f.days[0],
	}})
	data := snapshotBytes(t, win)
	// After the 78-byte header: the bucket's hour and record count, the
	// counter's line count, its one v4 line (length + 4 bytes), then the
	// bitset length and the line's only bitset word.
	const word = 78 + 8 + 8 + 4 + 4 + 4 + 4
	if got := binary.LittleEndian.Uint64(data[word:]); got != 1 {
		t.Fatalf("counter bitset word at offset %d is %#x, want backend 0's bit", word, got)
	}
	data[word+7] |= 0x80
	restored, err := Restore(bytes.NewReader(data), f.idx, f.opts)
	if err == nil || restored != nil || !strings.Contains(err.Error(), "counter bits has a bit set past") {
		t.Fatalf("restore with a padding bit set: window %v, err %v", restored != nil, err)
	}
}

// FuzzRestore: a window checkpoint this process did not write restores
// or fails with an error and a nil window — never a panic — and
// allocates no more than a fixed multiple of its own length plus the
// ring its (capped) hours field legitimately asks for. Whatever
// restores re-snapshots to bytes that restore to the same bytes again.
func FuzzRestore(f *testing.F) {
	fx := buildDenseFixture(11)
	opts := fx.opts
	opts.ScannerThreshold = 3
	for _, seed := range windowSeeds(f, fx, opts) {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
		f.Add(seed[:len(seed)-1])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		bound := restoreAllocPerByte*len(data) + restoreAllocSlack
		if len(data) >= iwinHoursAt+4 {
			if h := binary.LittleEndian.Uint32(data[iwinHoursAt:]); h <= maxWindowHours {
				bound += windowRingBytes(int(h))
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		win, err := Restore(bytes.NewReader(data), fx.idx, opts)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(bound) {
			t.Fatalf("restoring %d bytes allocated %d bytes (bound %d)", len(data), alloc, bound)
		}
		if err != nil {
			if win != nil {
				t.Fatal("failed restore returned a window")
			}
			return
		}
		first := snapshotBytes(t, win)
		again, err := Restore(bytes.NewReader(first), fx.idx, opts)
		if err != nil {
			t.Fatalf("re-snapshot of a restored window does not restore: %v", err)
		}
		if !bytes.Equal(snapshotBytes(t, again), first) {
			t.Fatal("restored window changed across a snapshot round trip")
		}
	})
}
