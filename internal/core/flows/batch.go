package flows

import (
	"fmt"
	"net/netip"
	"time"

	"iotmap/internal/netflow"
	"iotmap/internal/proto"
)

// Columnar ingest: the dictionary-negotiating wire format ships
// addresses once (dictionary frames) and dense uint32 IDs thereafter
// (batch frames), so the collector's hot loop never materializes a
// netip.Addr. WireTables is the per-stream receiver state — the
// line/backend dictionaries resolved against this partial's index and
// collector — and IngestBatch is the only way rows reach either
// aggregation layout: one call folds a whole flush interval's
// RecordBatch with strided slice/bitset updates. Record feeds (the
// memory-mode simulation, NetFlow v5/v6/v9/IPFIX) cross into the same
// path at one edge, AppendRecords, which turns a flush of records into
// rows of record-fed tables.

// maxWireDictEntries bounds a stream's dictionary size. The address
// plan tops out at 2^22 lines per vantage; the slack above that guards
// against a hostile dictionary frame inflating the tables to OOM.
const maxWireDictEntries = 1 << 24

// lostBackend marks a gap-filled backend dictionary entry (a dropped
// dictionary frame under a lossy fault policy). Distinct from
// unknownBackend: referencing a lost entry is frame damage, referencing
// a known-but-unindexed backend is silently skipped data.
const lostBackend int32 = -2

// unknownBackend marks a dictionary entry whose address is not in the
// BackendIndex. Rows referencing it are skipped, mirroring the memory
// path where lineSide misses ignore the record.
const unknownBackend int32 = -1

// wireLineEnt is one line-dictionary entry: the address plus its lazily
// interned IDs in the partial's ContactCounter and Collector.
type wireLineEnt struct {
	addr     netip.Addr
	ccID     int32 // interned on first contact evidence; -1 until then
	colID    int32 // interned on first kept record; -1 until then
	winID    int32 // window-shard line ID+1; 0 until first routed row
	excluded bool  // pre-seeded scanner (Options.Excluded)
	valid    bool  // false for gap-filled (lost) entries
}

// WireTables is one wire stream's dictionary state, bound to the index
// and exclusion set of the Sink the stream feeds (a ShardPartial or a
// Window). Dictionary frames append entries (AddLines/AddBackends);
// batch frames validate against the tables (Validate) and fold via the
// sink's IngestBatch. Owned by one stream; no locking.
type WireTables struct {
	idx      *BackendIndex
	excluded map[netip.Addr]struct{}
	// shard is the window ingest shard the tables are bound to (nil for
	// ShardPartial-fed tables and until Window.IngestBatch binds one);
	// winID memos are IDs in this shard's line table.
	shard    *winShard
	lines    []wireLineEnt
	backends []int32 // dense backend ID, unknownBackend, or lostBackend
	// recLines interns record-fed line addresses to line-dictionary IDs
	// (AppendRecords); nil for tables fed by dictionary frames.
	recLines *lineTab
	// entSlot/touched scratch one IngestBatch call's per-line ent
	// assignment (index+1 into the sink's recycled ents; 0 = none).
	entSlot []int32
	touched []int32
}

// NewWireTables implements Sink: empty dictionary tables feeding p. A
// stream (re)starts with fresh tables on every hello frame.
func (p *ShardPartial) NewWireTables() *WireTables {
	return &WireTables{idx: p.idx, excluded: p.col.excluded}
}

// Lines returns the line-dictionary size (lost entries included).
func (t *WireTables) Lines() int { return len(t.lines) }

// Backends returns the backend-dictionary size (lost entries included).
func (t *WireTables) Backends() int { return len(t.backends) }

// dictGap validates a dictionary frame's base against the current table
// size and returns the number of entries to gap-fill as lost. A base
// below the current size would rewrite history (the exporter only ever
// appends); a base above it means earlier dictionary frames were
// dropped — the gap is filled with lost entries so later deltas still
// land at their advertised IDs.
func dictGap(kind string, base uint32, have, adding int) (int, error) {
	if int(base) < have {
		return 0, fmt.Errorf("flows: %s dictionary base %d rewinds %d existing entries", kind, base, have)
	}
	if int(base)+adding > maxWireDictEntries {
		return 0, fmt.Errorf("flows: %s dictionary would reach %d entries (limit %d)", kind, int(base)+adding, maxWireDictEntries)
	}
	return int(base) - have, nil
}

// AddLines appends one line-dictionary frame's addresses at base.
func (t *WireTables) AddLines(base uint32, addrs []netip.Addr) error {
	gap, err := dictGap("line", base, len(t.lines), len(addrs))
	if err != nil {
		return err
	}
	for i := 0; i < gap; i++ {
		t.lines = append(t.lines, wireLineEnt{ccID: -1, colID: -1})
	}
	for _, a := range addrs {
		_, excluded := t.excluded[a]
		t.lines = append(t.lines, wireLineEnt{addr: a, ccID: -1, colID: -1, excluded: excluded, valid: true})
	}
	t.entSlot = grown(t.entSlot, len(t.lines))
	return nil
}

// AddBackends appends one backend-dictionary frame's addresses at base,
// resolving each against the partial's BackendIndex.
func (t *WireTables) AddBackends(base uint32, addrs []netip.Addr) error {
	gap, err := dictGap("backend", base, len(t.backends), len(addrs))
	if err != nil {
		return err
	}
	for i := 0; i < gap; i++ {
		t.backends = append(t.backends, lostBackend)
	}
	for _, a := range addrs {
		if bi, ok := t.idx.info[a]; ok {
			t.backends = append(t.backends, bi.id)
		} else {
			t.backends = append(t.backends, unknownBackend)
		}
	}
	return nil
}

// AppendRecords is the record edge of the columnar path: it appends one
// flush interval's records to b as rows of t, so a record feed folds
// through the sink's IngestBatch exactly like a dictionary feed. Each
// record is classified with lineSide, its line address is interned into
// t's line dictionary, its backend becomes its dense ID (record-fed
// tables carry the identity backend dictionary), and its start floors
// to a whole hour relative to epoch (negative before it). Bytes and
// Packets are copied as they are. Records with no backend side are
// skipped, as IngestBatch would skip them.
//
// Record-fed tables take no dictionary frames: their line IDs are
// AppendRecords' own. They only grow, so one tables value and one batch
// (Reset between flushes) serve a stream for its whole life.
func (t *WireTables) AppendRecords(b *netflow.RecordBatch, recs []netflow.Record, epoch time.Time) {
	if t.recLines == nil {
		t.recLines = &lineTab{}
		t.backends = make([]int32, len(t.idx.addrs))
		for i := range t.backends {
			t.backends[i] = int32(i)
		}
	}
	for _, r := range recs {
		line, backendID, down, ok := t.idx.lineSide(r)
		if !ok {
			continue
		}
		li := t.recLines.id(line)
		if int(li) == len(t.lines) {
			_, excluded := t.excluded[line]
			t.lines = append(t.lines, wireLineEnt{addr: line, ccID: -1, colID: -1, excluded: excluded, valid: true})
		}
		// The backend-side port identifies the service.
		port := r.DstPort
		if down {
			port = r.SrcPort
		}
		since := r.Start.Sub(epoch)
		hour := since / time.Hour
		if since%time.Hour < 0 {
			hour--
		}
		b.Append(uint32(li), uint32(backendID), down, int32(hour), port, r.Proto, r.Bytes, r.Packets)
	}
	t.entSlot = grown(t.entSlot, len(t.lines))
}

// Validate checks rows [from, b.Len()) against the dictionaries: every
// line ID must name a valid (non-lost) entry and every backend ID an
// existing entry that is not lost. Unknown (unindexed) backends pass —
// those rows are skipped at fold time. An error means the frame the
// rows came from is damaged; the caller discards the rows and applies
// its fault policy.
func (t *WireTables) Validate(b *netflow.RecordBatch, from int) error {
	for i := from; i < b.Len(); i++ {
		li := b.Line[i]
		if int(li) >= len(t.lines) || !t.lines[li].valid {
			return fmt.Errorf("flows: batch row references line ID %d (dictionary has %d entries)", li, len(t.lines))
		}
		bi := b.Backend[i]
		if int(bi) >= len(t.backends) || t.backends[bi] == lostBackend {
			return fmt.Errorf("flows: batch row references backend ID %d (dictionary has %d entries)", bi, len(t.backends))
		}
	}
	return nil
}

// IngestBatch implements Sink: it folds one flush interval's RecordBatch
// into the partial. Rows come from t.Validate (a wire stream) or
// t.AppendRecords (a record feed); Hour is in study hours (negative =
// before the study window).
//
// Every row with an indexed backend contributes contact evidence
// (Figure 5 counts scanners' contacts too), per-line exclusion applies
// at flush granularity with this batch's distinct-backend evidence, and
// only rows from kept, non-excluded lines with in-window hours reach the
// Collector. Flushed once per line-week, this equals the two-pass
// reference over the same feed: a ContactCounter, then a Collector with
// the counter's scanners in Options.Excluded.
func (p *ShardPartial) IngestBatch(t *WireTables, b *netflow.RecordBatch) {
	if b.Len() == 0 {
		return
	}
	ents := t.classify(b, p.ents, p.threshold)
	p.ents = ents

	// Every touched line's evidence folds into the ContactCounter,
	// scanner or not.
	for _, li := range t.touched {
		ln := &t.lines[li]
		if ln.ccID < 0 {
			ln.ccID = p.cc.lineID(ln.addr)
		}
		orBits(p.cc.bits[int(ln.ccID)*p.cc.words:(int(ln.ccID)+1)*p.cc.words], ents[t.entSlot[li]-1].bits)
	}

	// Kept rows fold into the Collector.
	for i, bi := range b.Backend {
		be := t.backends[bi]
		if be < 0 {
			continue
		}
		li := b.Line[i]
		ln := &t.lines[li]
		if ents[t.entSlot[li]-1].over || ln.excluded {
			continue
		}
		h := int(b.Hour[i])
		if h < 0 || h >= p.col.hours {
			continue
		}
		if ln.colID < 0 {
			ln.colID = p.col.lineID(ln.addr)
		}
		port := proto.PortKey{Port: b.Port[i]}
		if b.Proto[i] == netflow.ProtoUDP {
			port.Transport = proto.UDP
		}
		p.col.ingestDense(int(ln.colID), be, b.Down[i], h, port, float64(b.Bytes[i])*p.col.rate)
	}
	t.endClassify()
}

// endEnt is one line's per-flush contact evidence.
type endEnt struct {
	bits []uint64
	over bool
}

// classify is the scanner classification both aggregation layouts
// share. Every row of b with an indexed backend sets that backend's bit
// in its line's entry — one entry per distinct line, recycling ents'
// bitsets, with t.touched listing the lines in first-row order and
// t.entSlot mapping each to its entry+1 — and each entry is judged a
// scanner when this flush's distinct-backend count exceeds threshold.
// Release the slots with endClassify once the flush is folded.
func (t *WireTables) classify(b *netflow.RecordBatch, ents []endEnt, threshold int) []endEnt {
	words := t.idx.words
	ents = ents[:0]
	for i, bi := range b.Backend {
		be := t.backends[bi]
		if be < 0 {
			continue
		}
		li := b.Line[i]
		if t.entSlot[li] == 0 {
			ents = appendEnt(ents, words)
			t.entSlot[li] = int32(len(ents))
			t.touched = append(t.touched, int32(li))
		}
		setBit(ents[t.entSlot[li]-1].bits, int(be))
	}
	for _, li := range t.touched {
		ent := &ents[t.entSlot[li]-1]
		ent.over = popcount(ent.bits) > threshold
	}
	return ents
}

// appendEnt reuses (or allocates) the next per-flush line entry.
func appendEnt(ents []endEnt, words int) []endEnt {
	if cap(ents) > len(ents) {
		ents = ents[:len(ents)+1]
		if ent := &ents[len(ents)-1]; len(ent.bits) != words {
			ent.bits = make([]uint64, words)
		} else {
			clearBits(ent.bits)
		}
		return ents
	}
	return append(ents, endEnt{bits: make([]uint64, words)})
}

// endClassify releases the per-line entry slots classify assigned.
func (t *WireTables) endClassify() {
	for _, li := range t.touched {
		t.entSlot[li] = 0
	}
	t.touched = t.touched[:0]
}
