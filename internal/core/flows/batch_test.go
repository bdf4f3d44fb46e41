package flows

import (
	"net/netip"
	"reflect"
	"testing"
	"time"

	"iotmap/internal/isp"
	"iotmap/internal/netflow"
)

// TestAppendRecordsEdge pins the record edge's row shape: backend-side
// classification (Dst first, port from the backend side), the identity
// backend dictionary, first-contact line IDs that persist across
// flushes, hours floored toward negative infinity around the epoch, and
// records with no backend side dropped.
func TestAppendRecordsEdge(t *testing.T) {
	f := buildDenseFixture(5)
	p := NewShardPartial(f.idx, f.days, f.opts)
	tables := p.NewWireTables()
	epoch := f.days[0]
	be, other := f.idx.addrs[3], f.idx.addrs[8]
	lineA, lineB := isp.LineV4Addr(0, 11), isp.LineV6Addr(1, 4)
	stranger := netip.MustParseAddr("192.0.2.1")
	rec := func(src, dst netip.Addr, sp, dp uint16, at time.Duration) netflow.Record {
		return netflow.Record{Src: src, Dst: dst, SrcPort: sp, DstPort: dp, Proto: netflow.ProtoUDP, Bytes: 7, Packets: 1, Start: epoch.Add(at)}
	}

	var b netflow.RecordBatch
	tables.AppendRecords(&b, []netflow.Record{
		rec(lineA, be, 40000, 443, 0),                          // up, hour 0
		rec(be, lineA, 8883, 40001, -time.Nanosecond),          // down, just before the epoch
		rec(lineB, stranger, 1, 2, time.Hour),                  // no backend side
		rec(other, lineB, 5683, 3, -time.Hour),                 // down, exactly one hour before
		rec(lineB, other, 4, 5684, -time.Hour-time.Nanosecond), // up, into hour -2
		rec(lineA, be, 40002, 443, 59*time.Minute),             // still hour 0
	}, epoch)
	want := netflow.RecordBatch{
		Line:    []uint32{0, 0, 1, 1, 0},
		Backend: []uint32{3, 3, 8, 8, 3},
		Down:    []bool{false, true, true, false, false},
		Hour:    []int32{0, -1, -1, -2, 0},
		Port:    []uint16{443, 8883, 5683, 5684, 443},
		Proto:   []uint8{netflow.ProtoUDP, netflow.ProtoUDP, netflow.ProtoUDP, netflow.ProtoUDP, netflow.ProtoUDP},
		Bytes:   []uint64{7, 7, 7, 7, 7},
		Packets: []uint64{1, 1, 1, 1, 1},
	}
	if !reflect.DeepEqual(b, want) {
		t.Fatalf("rows\n got  %+v\n want %+v", b, want)
	}
	if tables.Backends() != len(f.idx.addrs) || tables.backends[8] != 8 {
		t.Fatalf("record-fed tables should carry the identity backend dictionary, got %d entries", tables.Backends())
	}
	if err := tables.Validate(&b, 0); err != nil {
		t.Fatalf("record-edge rows fail dictionary validation: %v", err)
	}
	p.IngestBatch(tables, &b)

	// A second flush on the same feed reuses both: known lines keep
	// their IDs, new lines extend the dictionary.
	b.Reset()
	lineC := isp.LineV4Addr(0, 12)
	tables.AppendRecords(&b, []netflow.Record{rec(lineB, be, 9, 443, 2*time.Hour), rec(lineC, be, 9, 443, 2*time.Hour)}, epoch)
	if !reflect.DeepEqual(b.Line, []uint32{1, 2}) || tables.Lines() != 3 {
		t.Fatalf("second flush lines %v (dictionary %d), want [1 2] over 3 entries", b.Line, tables.Lines())
	}
	p.IngestBatch(tables, &b)
	cc, _ := MergePartials([]*ShardPartial{p})
	if got := len(cc.contactSets()); got != 3 {
		t.Fatalf("contact counter holds %d lines, want 3", got)
	}
}

// TestWindowRecordsSkipExcluded: records of an Options.Excluded line
// still count as contact evidence but do not count toward their
// bucket's Records, on either feed shape.
func TestWindowRecordsSkipExcluded(t *testing.T) {
	f := buildDenseFixture(9)
	f.idx.Build()
	epoch := f.days[0]
	line, be := isp.LineV4Addr(0, 3), f.idx.addrs[0]
	opts := f.opts
	opts.Excluded = map[netip.Addr]struct{}{line: {}}
	win, err := NewWindow(f.idx, epoch, 48, opts)
	if err != nil {
		t.Fatal(err)
	}
	recs := []netflow.Record{
		{Src: line, Dst: be, SrcPort: 1, DstPort: 443, Bytes: 10, Start: epoch.Add(time.Hour)},
		{Src: isp.LineV4Addr(0, 4), Dst: be, SrcPort: 1, DstPort: 443, Bytes: 10, Start: epoch.Add(time.Hour)},
	}
	newRecordFeed(win, epoch).flush(recs)
	if bs := win.BucketStats(); len(bs) != 1 || bs[0].Records != 1 {
		t.Fatalf("bucket stats %+v, want one bucket holding the one kept record", bs)
	}
	cc, _ := win.Merged()
	if _, ok := cc.contactSets()[line]; !ok {
		t.Fatal("excluded line's contact evidence was dropped")
	}
}
