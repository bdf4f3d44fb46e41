package flows

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"reflect"
	"runtime"
	"testing"

	"iotmap/internal/isp"
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
