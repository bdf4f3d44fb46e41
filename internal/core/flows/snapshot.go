package flows

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/netip"
	"slices"
	"sort"
	"time"

	"iotmap/internal/analysis"
	"iotmap/internal/geo"
	"iotmap/internal/proto"
)

// Checkpoint/restore of the sliding window: the dense aggregation state
// is snapshot-friendly by construction — every aggregate is a flat
// slice, bitset, or small map, and each hour is encoded with canonical
// IDs (lines in sorted address order, ports in sorted key order), so
// re-interning the stored addresses in ID order on restore reproduces
// the line tables (plan arithmetic included) exactly. The format is
// versioned, little-endian, and length-prefixed throughout; a restored
// window continues ingesting as if the process had never died, which
// the kill-resume acceptance test pins down to byte-identical figures.
//
// Safety: restore never trusts lengths blindly — every slice length is
// validated against what the receiving aggregate's geometry implies
// (line count × stride, index words, hour count), so a corrupt or
// truncated checkpoint fails with an error instead of an OOM or a
// silently skewed study. A fingerprint of the BackendIndex and Options
// binds a checkpoint to the world and configuration that produced it.

// snapshotMagic / snapshotVersion identify a Window snapshot stream.
const (
	snapshotMagic   = "IWIN"
	snapshotVersion = 1
)

// wireTablesMagic / wireTablesVersion identify a WireTables snapshot.
const (
	wireTablesMagic   = "IWTB"
	wireTablesVersion = 1
)

// maxSnapshotEntries bounds any count field read from a snapshot, so a
// corrupt length cannot allocate unbounded memory before validation.
const maxSnapshotEntries = 1 << 26

// snapPrealloc caps how many elements a decoder pre-sizes from a length
// field. Longer slices grow as their data actually arrives, so a corrupt
// length costs allocation in proportion to the bytes read, not to the
// count it claims.
const snapPrealloc = 1 << 12

// --- codec helpers -------------------------------------------------------

// snapWriter is a little-endian writer with a latched error, so encode
// paths read straight-line without per-call error plumbing.
type snapWriter struct {
	w   io.Writer
	err error
	buf [8]byte
}

func (s *snapWriter) write(b []byte) {
	if s.err != nil {
		return
	}
	_, s.err = s.w.Write(b)
}

func (s *snapWriter) u8(v uint8) { s.buf[0] = v; s.write(s.buf[:1]) }
func (s *snapWriter) u16(v uint16) {
	binary.LittleEndian.PutUint16(s.buf[:2], v)
	s.write(s.buf[:2])
}
func (s *snapWriter) u32(v uint32) {
	binary.LittleEndian.PutUint32(s.buf[:4], v)
	s.write(s.buf[:4])
}
func (s *snapWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(s.buf[:8], v)
	s.write(s.buf[:8])
}
func (s *snapWriter) i64(v int64)   { s.u64(uint64(v)) }
func (s *snapWriter) f64(v float64) { s.u64(math.Float64bits(v)) }

func (s *snapWriter) bytes(b []byte) {
	s.u32(uint32(len(b)))
	s.write(b)
}

func (s *snapWriter) str(v string) { s.bytes([]byte(v)) }

func (s *snapWriter) addr(a netip.Addr) {
	b, err := a.MarshalBinary()
	if err != nil && s.err == nil {
		s.err = err
	}
	s.bytes(b)
}

func (s *snapWriter) u64s(v []uint64) {
	s.u32(uint32(len(v)))
	for _, x := range v {
		s.u64(x)
	}
}

func (s *snapWriter) f64s(v []float64) {
	s.u32(uint32(len(v)))
	for _, x := range v {
		s.f64(x)
	}
}

func (s *snapWriter) u8s(v []uint8) {
	s.u32(uint32(len(v)))
	s.write(v)
}

// snapReader mirrors snapWriter: little-endian reads with a latched
// error and bounded counts.
type snapReader struct {
	r   io.Reader
	err error
	buf [8]byte
}

func (s *snapReader) read(b []byte) {
	if s.err != nil {
		return
	}
	_, s.err = io.ReadFull(s.r, b)
}

func (s *snapReader) u8() uint8 { s.read(s.buf[:1]); return s.buf[0] }
func (s *snapReader) u16() uint16 {
	s.read(s.buf[:2])
	return binary.LittleEndian.Uint16(s.buf[:2])
}
func (s *snapReader) u32() uint32 {
	s.read(s.buf[:4])
	return binary.LittleEndian.Uint32(s.buf[:4])
}
func (s *snapReader) u64() uint64 {
	s.read(s.buf[:8])
	return binary.LittleEndian.Uint64(s.buf[:8])
}
func (s *snapReader) i64() int64   { return int64(s.u64()) }
func (s *snapReader) f64() float64 { return math.Float64frombits(s.u64()) }

// count reads a length field and refuses implausible values.
func (s *snapReader) count(what string) int {
	n := s.u32()
	if s.err == nil && n > maxSnapshotEntries {
		s.err = fmt.Errorf("flows: snapshot %s count %d exceeds limit %d", what, n, maxSnapshotEntries)
	}
	return int(n)
}

func (s *snapReader) bytes(what string) []byte {
	n := s.count(what)
	if s.err != nil {
		return nil
	}
	b := make([]byte, 0, min(n, snapPrealloc))
	for len(b) < n && s.err == nil {
		k := min(n-len(b), snapPrealloc)
		b = append(b, make([]byte, k)...)
		s.read(b[len(b)-k:])
	}
	return b
}

func (s *snapReader) str(what string) string { return string(s.bytes(what)) }

func (s *snapReader) addr(what string) netip.Addr {
	b := s.bytes(what)
	if s.err != nil {
		return netip.Addr{}
	}
	var a netip.Addr
	if err := a.UnmarshalBinary(b); err != nil {
		s.err = fmt.Errorf("flows: snapshot %s: %w", what, err)
	}
	return a
}

func (s *snapReader) u64s(what string) []uint64 {
	n := s.count(what)
	if s.err != nil {
		return nil
	}
	v := make([]uint64, 0, min(n, snapPrealloc))
	for len(v) < n && s.err == nil {
		v = append(v, s.u64())
	}
	return v
}

func (s *snapReader) f64s(what string) []float64 {
	n := s.count(what)
	if s.err != nil {
		return nil
	}
	v := make([]float64, 0, min(n, snapPrealloc))
	for len(v) < n && s.err == nil {
		v = append(v, s.f64())
	}
	return v
}

// --- fingerprints --------------------------------------------------------

// fingerprint binds a snapshot to the index and options it was taken
// under: restoring against a different world or configuration would
// silently mis-assign every dense ID, so it is refused up front.
func (b *BackendIndex) fingerprint() uint64 {
	b.ensureBuilt()
	h := fnv.New64a()
	for _, a := range b.addrs {
		raw, _ := a.MarshalBinary()
		h.Write(raw)
	}
	for _, n := range b.aliasNames {
		h.Write([]byte(n))
	}
	return h.Sum64()
}

// optionsFingerprint hashes the Options fields that shape aggregation.
// The excluded set folds in order-independently (map iteration order
// must not change the hash).
func optionsFingerprint(o Options) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "t=%d r=%d fa=%q fr=%q v=%q n=%d", o.ScannerThreshold, o.SamplingRate, o.FocusAlias, o.FocusRegion, o.Vantage, len(o.Excluded))
	var ex uint64
	for a := range o.Excluded {
		eh := fnv.New64a()
		raw, _ := a.MarshalBinary()
		eh.Write(raw)
		ex ^= eh.Sum64()
	}
	sum := h.Sum64()
	return sum ^ ex
}

// --- Window snapshot -----------------------------------------------------

// Snapshot writes a versioned binary checkpoint of the window — every
// live hour's dense aggregation state — to dst. The window stays live;
// concurrent ingest is blocked only for the duration of the encode.
// Restore with Restore against the same index and Options.
//
// The v1 format is unchanged from the per-bucket-Collector era: each
// live hour is folded, through the same foldBucketInto that serves
// Study and Merged, into a transient single-day ContactCounter+Collector
// pair and encoded with the existing codecs. The encoding is canonical
// (see hourFold), so two windows whose ring-columnar state is
// distributed differently across ingest shards (an original and its
// restored twin, say) still serialize byte-identically.
func Snapshot(dst io.Writer, w *Window) error {
	w.lockShards()
	defer w.unlockShards()
	end := w.endA.Load()
	stats := w.Stats()
	s := &snapWriter{w: dst}
	s.write([]byte(snapshotMagic))
	s.u16(snapshotVersion)
	s.u64(w.idx.fingerprint())
	s.u64(optionsFingerprint(w.opts))
	s.u32(uint32(w.hours))
	s.i64(w.epoch.UnixNano())
	s.i64(end)
	s.u64(stats.PreWindowRecords)
	s.u64(stats.LateRecords)
	s.u64(stats.EvictedHours)
	s.u64(stats.EvictedRecords)

	// Holding every shard lock, the frame ledger is readable without
	// frameMu and marks exactly the in-frame hours some shard holds.
	var live []int64
	for ah := w.startHour(end); ah <= end; ah++ {
		if w.hourLive[ah%int64(w.hours)] {
			live = append(live, ah)
		}
	}
	s.u32(uint32(len(live)))
	for _, ah := range live {
		f, records := w.hourFold(ah)
		s.i64(ah)
		s.u64(records)
		snapshotCounter(s, f.cc)
		snapshotCollector(s, f.col)
	}
	return s.err
}

// hourFold folds one live hour's shard buckets into a fresh single-day
// fold in canonical order: lines intern in sorted address order (every
// row into the ContactCounter, rows with a continent mask into the
// Collector), ports in sorted (transport, port) order from the union of
// the buckets' per-alias seen ports (scatter marks every port it gives a
// row slot), and the la/lp slot tables are sorted line-major afterwards.
// The result is independent of how rows were spread across shards. It
// also returns the hour's record count. Caller holds all shard locks.
func (w *Window) hourFold(ah int64) (*windowFold, uint64) {
	f := w.newFoldFrame(ah, ah, 1)
	var records uint64
	var lines, colLines []netip.Addr
	var ports []proto.PortKey
	for _, sh := range w.shards {
		bk := sh.bucketAt(ah)
		if bk == nil {
			continue
		}
		records += bk.records
		for r := 0; r < bk.nRows; r++ {
			a := sh.lines.addrs[bk.lineIDs[r]]
			lines = append(lines, a)
			if bk.rowU8[r*bk.uw+bk.asl] != 0 {
				colLines = append(colLines, a)
			}
		}
		for a := 0; a < w.nA; a++ {
			forEachBit(bk.portSeenA[a*sh.pw:(a+1)*sh.pw], func(p int) {
				ports = append(ports, sh.ports.keys[p])
			})
		}
	}
	slices.SortFunc(lines, netip.Addr.Compare)
	slices.SortFunc(colLines, netip.Addr.Compare)
	slices.SortFunc(ports, func(a, b proto.PortKey) int {
		return cmp.Or(cmp.Compare(a.Transport, b.Transport), cmp.Compare(a.Port, b.Port))
	})
	for _, a := range lines {
		f.cc.lineID(a)
	}
	for _, a := range colLines {
		f.col.lineID(a)
	}
	for _, k := range ports {
		f.col.ports.id(k)
	}
	for si, sh := range w.shards {
		if bk := sh.bucketAt(ah); bk != nil {
			w.foldBucketInto(f, si, sh, bk)
		}
	}
	f.col.sortSlots()
	return f, records
}

// Restore reads a Snapshot-written checkpoint and rebuilds the window.
// idx and opts must match the snapshotting process's (enforced via
// fingerprints): dense IDs are deterministic for one built index, so
// the restored buckets continue exactly where the snapshot stopped.
func Restore(src io.Reader, idx *BackendIndex, opts Options) (*Window, error) {
	s := &snapReader{r: src}
	magic := make([]byte, len(snapshotMagic))
	s.read(magic)
	if s.err == nil && string(magic) != snapshotMagic {
		return nil, fmt.Errorf("flows: not a window snapshot (magic %q)", magic)
	}
	if v := s.u16(); s.err == nil && v != snapshotVersion {
		return nil, fmt.Errorf("flows: window snapshot version %d (want %d)", v, snapshotVersion)
	}
	idxFP := s.u64()
	optFP := s.u64()
	if s.err == nil && idxFP != idx.fingerprint() {
		return nil, fmt.Errorf("flows: snapshot was taken over a different backend index")
	}
	if s.err == nil && optFP != optionsFingerprint(opts) {
		return nil, fmt.Errorf("flows: snapshot was taken under different aggregation options")
	}
	hours := int(s.u32())
	epoch := time.Unix(0, s.i64()).UTC()
	end := s.i64()
	var stats WindowStats
	stats.PreWindowRecords = s.u64()
	stats.LateRecords = s.u64()
	stats.EvictedHours = s.u64()
	stats.EvictedRecords = s.u64()
	if s.err != nil {
		return nil, s.err
	}
	// Batch rows carry int32 hours, so a live window's end never leaves
	// [-1, MaxInt32]; past it, walking the frame would overflow.
	if end < -1 || end > math.MaxInt32 {
		return nil, fmt.Errorf("flows: snapshot window end hour %d outside [-1, %d]", end, math.MaxInt32)
	}
	w, err := NewWindow(idx, epoch, hours, opts)
	if err != nil {
		return nil, err
	}
	w.end = end
	w.endA.Store(end)
	w.preWindow.Store(stats.PreWindowRecords)
	w.late.Store(stats.LateRecords)
	w.evictedHours = stats.EvictedHours
	w.evictedRecords = stats.EvictedRecords

	n := s.count("bucket")
	for i := 0; i < n && s.err == nil; i++ {
		ah := s.i64()
		records := s.u64()
		if s.err != nil {
			break
		}
		if ah < 0 || ah > end || end-ah >= int64(hours) {
			return nil, fmt.Errorf("flows: snapshot bucket hour %d outside window ending at %d", ah, end)
		}
		cc := restoreCounter(s, idx)
		col := restoreCollector(s, idx, epoch.Add(time.Duration(ah)*time.Hour), opts)
		if s.err != nil {
			break
		}
		if err := w.restoreBucket(ah, records, cc, col); err != nil {
			return nil, err
		}
	}
	if s.err != nil {
		return nil, s.err
	}
	return w, nil
}

// restoreBucket converts one decoded hour's ContactCounter+Collector
// pair into a ring-columnar bucket on shard 0. The stored collector
// must be hour-confined (data only at bucket-local hour 0), which the
// live window guaranteed by construction; anything else is a corrupt
// or hand-edited checkpoint.
func (w *Window) restoreBucket(ah int64, records uint64, cc *ContactCounter, col *Collector) error {
	if err := validateHourConfinement(col); err != nil {
		return err
	}
	sh := w.shards[0]
	slot := int(ah % int64(w.hours))
	if old := sh.ring[slot]; old != nil {
		sh.recycle(old)
	}
	// Presize from this hour's own content: the shard hints an earlier
	// stored hour raised would otherwise inflate every later bucket, an
	// allocation the checkpoint's bytes never paid for.
	hints := [4]int{sh.rowHint, sh.beHint, sh.aslHint, sh.pslHint}
	sh.rowHint, sh.beHint, sh.aslHint, sh.pslHint = 0, 0, 0, 0
	defer func() {
		sh.rowHint, sh.beHint = max(sh.rowHint, hints[0]), max(sh.beHint, hints[1])
		sh.aslHint, sh.pslHint = max(sh.aslHint, hints[2]), max(sh.pslHint, hints[3])
	}()
	bk := sh.takeBucket(ah)
	sh.ring[slot] = bk
	bk.records = records

	// Intern the stored port table first: growPorts restrides the live
	// ring, and bk is already in it.
	pmap := make([]int32, len(col.ports.keys))
	for i, k := range col.ports.keys {
		pmap[i] = int32(sh.portID(k))
	}

	for i, a := range cc.lines.addrs {
		row := sh.rowFor(bk, sh.lines.id(a))
		forEachBit(cc.bits[i*cc.words:(i+1)*cc.words], func(b int) {
			sh.ccSet(bk, row, int32(b))
		})
	}

	colRow := make([]int, len(col.lines.addrs))
	for i, a := range col.lines.addrs {
		row := sh.rowFor(bk, sh.lines.id(a))
		colRow[i] = row
		bk.rowF64[row*bk.fw] = col.lineDaily[2*i]
		bk.rowF64[row*bk.fw+1] = col.lineDaily[2*i+1]
		bk.rowU8[row*bk.uw+bk.asl] = col.lineConts[i]
		forEachBit(col.lineAliasBits[i*w.aw:(i+1)*w.aw], func(al int) {
			si := sh.aliasSlot(bk, row, al)
			if hasBit(col.lineCertBits[i*w.aw:(i+1)*w.aw], al) {
				bk.rowU8[row*bk.uw+si] |= afCert
			}
		})
		var fb uint8
		if hourZeroBit(col.focusHoursAll, i) {
			fb |= 1
		}
		if hourZeroBit(col.focusHoursRegion, i) {
			fb |= 2
		}
		if hourZeroBit(col.focusHoursEU, i) {
			fb |= 4
		}
		bk.rowU8[row*bk.uw+bk.asl+1] = fb
	}
	for s, k := range col.laKeys {
		row := colRow[k.line]
		si := sh.aliasSlot(bk, row, int(k.alias))
		bk.rowU8[row*bk.uw+si] |= afDown
		bk.rowF64[row*bk.fw+2+si] = col.laDaily[s]
	}
	for s, k := range col.lpKeys {
		row := colRow[k.line]
		pi := sh.portSlot(bk, row, int(pmap[k.port]))
		bk.rowF64[row*bk.fw+2+bk.asl+pi] = col.lpDaily[s]
	}

	for a := 0; a < w.nA; a++ {
		if ser := col.downHour[a]; ser != nil {
			setBit(bk.aliasSeen, a)
			bk.aliasVol[2*a] = ser.Values[0]
		}
		if ser := col.upHour[a]; ser != nil {
			setBit(bk.aliasSeen[w.aw:], a)
			bk.aliasVol[2*a+1] = ser.Values[0]
		}
		forEachBit(col.portSeen[a], func(p int) {
			cp := int(pmap[p])
			if p < len(col.portVol[a]) {
				bk.portVolA[a*sh.pcap+cp] = col.portVol[a][p]
			}
			setBit(bk.portSeenA[a*sh.pw:], cp)
		})
	}

	forEachBit(col.backendSeen, func(b int) {
		lb := sh.beLocal(bk, int32(b))
		bk.backendVol = grown(bk.backendVol, lb+1)
		bk.backendVol[lb] = col.backendVol[b]
		setBit(bk.backendSeen, lb)
	})
	bk.covered = len(col.coverBits) > 0 && col.coverBits[0]&1 != 0
	if col.focusDownAll != nil {
		bk.focusAllV = col.focusDownAll.Values[0]
		bk.focusRegionV = col.focusDownRegion.Values[0]
		bk.focusEUV = col.focusDownEU.Values[0]
	}

	w.hourLive[slot] = true
	w.hourRecs[slot] = records
	return nil
}

// validateHourConfinement rejects a stored hour-bucket collector with
// data outside bucket-local hour 0 — the single-hour invariant every
// live bucket maintains, and the only shape restoreBucket can place
// into an hour column.
func validateHourConfinement(c *Collector) error {
	bad := false
	if len(c.coverBits) > 0 && c.coverBits[0]&^1 != 0 {
		bad = true
	}
	for _, w := range c.coverBits[1:] {
		if w != 0 {
			bad = true
		}
	}
	checkHours := func(rows []uint64) {
		for i, w := range rows {
			if i%c.hw == 0 {
				w &^= 1
			}
			if w != 0 {
				bad = true
			}
		}
	}
	checkSeries := func(ser *analysis.Series) {
		if ser == nil {
			return
		}
		for _, v := range ser.Values[1:] {
			if v != 0 {
				bad = true
			}
		}
	}
	for a := 0; a < c.nAliases; a++ {
		checkHours(c.lineHours[a])
		checkSeries(c.downHour[a])
		checkSeries(c.upHour[a])
	}
	checkHours(c.focusHoursAll)
	checkHours(c.focusHoursRegion)
	checkHours(c.focusHoursEU)
	checkSeries(c.focusDownAll)
	checkSeries(c.focusDownRegion)
	checkSeries(c.focusDownEU)
	if bad {
		return fmt.Errorf("flows: snapshot hour bucket has data outside its hour")
	}
	return nil
}

// hourZeroBit reports whether a stored per-line hour bitset (stride 1
// for a single-day bucket) has line's hour-0 bit set.
func hourZeroBit(rows []uint64, line int) bool {
	return line < len(rows) && rows[line]&1 != 0
}

// lines reads a stored line address table, re-interning it in ID order
// through intern (which hands out IDs in call order, so a duplicate
// address fails the read), and returns its length.
func (s *snapReader) lines(what string, intern func(netip.Addr) int32) int {
	n := s.count(what + " line")
	for i := 0; i < n && s.err == nil; i++ {
		a := s.addr(what + " line addr")
		if s.err != nil {
			break
		}
		if id := intern(a); int(id) != i {
			s.err = fmt.Errorf("flows: snapshot %s line %d re-interned as %d (duplicate address?)", what, i, id)
		}
	}
	return n
}

// snapshotCounter encodes a ContactCounter: line addresses in ID order
// plus the backend bitset arena.
func snapshotCounter(s *snapWriter, cc *ContactCounter) {
	s.u32(uint32(len(cc.lines.addrs)))
	for _, a := range cc.lines.addrs {
		s.addr(a)
	}
	s.u64s(cc.bits)
}

// restoreCounter rebuilds a ContactCounter by re-interning the stored
// addresses in ID order (reproducing the line table exactly) and
// adopting the bitset arena.
func restoreCounter(s *snapReader, idx *BackendIndex) *ContactCounter {
	cc := NewContactCounter(idx)
	n := s.lines("counter", cc.lineID)
	bits := s.u64s("counter bits")
	if s.err == nil && len(bits) != n*cc.words {
		s.err = fmt.Errorf("flows: snapshot counter bits length %d, want %d", len(bits), n*cc.words)
	}
	s.noBitsPast("counter bits", bits, cc.words, len(idx.addrs))
	if s.err != nil {
		return nil
	}
	cc.bits = bits
	return cc
}

// snapshotCollector encodes one hour bucket's Collector. The donor is
// always a single-day frame (ds=1, 24 hours), which the decoder
// re-derives from the bucket hour — only data goes on the wire.
func snapshotCollector(s *snapWriter, c *Collector) {
	s.u32(uint32(len(c.lines.addrs)))
	for _, a := range c.lines.addrs {
		s.addr(a)
	}
	s.u32(uint32(len(c.ports.keys)))
	for _, k := range c.ports.keys {
		s.u8(uint8(k.Transport))
		s.u16(k.Port)
	}
	s.u64s(c.coverBits)
	s.f64s(c.lineDaily)
	s.u8s(c.lineConts)
	s.u64s(c.lineAliasBits)
	s.u64s(c.lineCertBits)

	for a := 0; a < c.nAliases; a++ {
		s.u64s(c.visible[a])
		s.u64s(c.lineHours[a])
		snapshotSeries(s, c.downHour[a])
		snapshotSeries(s, c.upHour[a])
		s.f64s(c.portVol[a])
		s.u64s(c.portSeen[a])
	}

	s.f64s(c.laDaily)
	s.u32(uint32(len(c.laKeys)))
	for _, k := range c.laKeys {
		s.u32(uint32(k.line))
		s.u32(uint32(k.alias))
	}
	s.f64s(c.lpDaily)
	s.u32(uint32(len(c.lpKeys)))
	for _, k := range c.lpKeys {
		s.u32(uint32(k.line))
		s.u32(uint32(k.port))
	}

	// Backend volumes are sparse: presence bits plus the set values.
	s.u64s(c.backendSeen)
	forEachBit(c.backendSeen, func(b int) { s.f64(c.backendVol[b]) })

	conts := make([]string, 0, len(c.contVol))
	for cont := range c.contVol {
		conts = append(conts, string(cont))
	}
	sort.Strings(conts)
	s.u32(uint32(len(conts)))
	for _, cont := range conts {
		s.str(cont)
		s.f64(c.contVol[geo.Continent(cont)])
	}

	if c.focusAlias != "" {
		s.u8(1)
		snapshotSeries(s, c.focusDownAll)
		snapshotSeries(s, c.focusDownRegion)
		snapshotSeries(s, c.focusDownEU)
		s.u64s(c.focusHoursAll)
		s.u64s(c.focusHoursRegion)
		s.u64s(c.focusHoursEU)
	} else {
		s.u8(0)
	}
}

func snapshotSeries(s *snapWriter, ser *analysis.Series) {
	if ser == nil {
		s.u8(0)
		return
	}
	s.u8(1)
	s.f64s(ser.Values)
}

// restoreCollector rebuilds one hour bucket's Collector at the given
// bucket day. Line addresses re-intern in ID order (lineID grows every
// per-line aggregate to its exact snapshot length), then each stored
// slice replaces the grown one after a length check.
func restoreCollector(s *snapReader, idx *BackendIndex, day time.Time, opts Options) *Collector {
	c := NewCollector(idx, []time.Time{day}, opts)
	nLines := s.lines("collector", c.lineID)
	nPorts := s.count("collector port")
	for i := 0; i < nPorts && s.err == nil; i++ {
		k := proto.PortKey{Transport: proto.Transport(s.u8()), Port: s.u16()}
		if id := c.ports.id(k); s.err == nil && int(id) != i {
			s.err = fmt.Errorf("flows: snapshot collector port %d re-interned as %d (duplicate key?)", i, id)
		}
	}
	c.coverBits = fixed(s, s.u64s, "coverBits", len(c.coverBits))
	c.lineDaily = fixed(s, s.f64s, "lineDaily", nLines*2*c.ds)
	c.lineConts = fixed(s, s.bytes, "lineConts", nLines)
	c.lineAliasBits = fixed(s, s.u64s, "lineAliasBits", nLines*c.aw)
	c.lineCertBits = fixed(s, s.u64s, "lineCertBits", nLines*c.aw)
	s.noBitsPast("lineAliasBits", c.lineAliasBits, c.aw, c.nAliases)
	s.noBitsPast("lineCertBits", c.lineCertBits, c.aw, c.nAliases)

	for a := 0; a < c.nAliases && s.err == nil; a++ {
		c.visible[a] = s.maybeFixedU64s("visible", idx.words)
		c.lineHours[a] = bounded(s, s.u64s, "lineHours", nLines*c.hw)
		c.downHour[a] = restoreSeries(s, idx.aliasNames[a], c.hours)
		c.upHour[a] = restoreSeries(s, idx.aliasNames[a], c.hours)
		c.portVol[a] = bounded(s, s.f64s, "portVol", nPorts)
		c.portSeen[a] = bounded(s, s.u64s, "portSeen", (nPorts+63)/64)
		s.noBitsPast("visible", c.visible[a], idx.words, len(idx.addrs))
		s.noBitsPast("portSeen", c.portSeen[a], len(c.portSeen[a]), nPorts)
	}

	c.laDaily = s.f64s("laDaily")
	nla := s.count("laKeys")
	if s.err == nil && len(c.laDaily) != nla*c.ds {
		s.err = fmt.Errorf("flows: snapshot laDaily length %d, want %d", len(c.laDaily), nla*c.ds)
	}
	c.laKeys = make([]laKey, 0, min(nla, snapPrealloc))
	for i := 0; i < nla && s.err == nil; i++ {
		line, alias := s.u32(), s.u32()
		if uint64(line) >= uint64(nLines) || uint64(alias) >= uint64(c.nAliases) {
			s.err = fmt.Errorf("flows: snapshot laKey (%d,%d) out of range", line, alias)
			break
		}
		k := laKey{line: int32(line), alias: int32(alias)}
		c.laKeys = append(c.laKeys, k)
		c.laIdx[int(k.line)*c.nAliases+int(k.alias)] = int32(i) + 1
	}

	c.lpDaily = s.f64s("lpDaily")
	nlp := s.count("lpKeys")
	if s.err == nil && len(c.lpDaily) != nlp*c.ds {
		s.err = fmt.Errorf("flows: snapshot lpDaily length %d, want %d", len(c.lpDaily), nlp*c.ds)
	}
	c.lpKeys = make([]lpKey, 0, min(nlp, snapPrealloc))
	for i := 0; i < nlp && s.err == nil; i++ {
		line, port := s.u32(), s.u32()
		if uint64(line) >= uint64(nLines) || uint64(port) >= uint64(nPorts) {
			s.err = fmt.Errorf("flows: snapshot lpKey (%d,%d) out of range", line, port)
			break
		}
		k := lpKey{line: int32(line), port: int32(port)}
		c.lpKeys = append(c.lpKeys, k)
		for len(c.lpIdx) <= int(k.port) {
			c.lpIdx = append(c.lpIdx, nil)
		}
		arr := grown(c.lpIdx[k.port], int(k.line)+1)
		c.lpIdx[k.port] = arr
		arr[k.line] = int32(i) + 1
	}

	c.backendSeen = fixed(s, s.u64s, "backendSeen", idx.words)
	s.noBitsPast("backendSeen", c.backendSeen, idx.words, len(idx.addrs))
	if s.err == nil {
		forEachBit(c.backendSeen, func(b int) { c.backendVol[b] = s.f64() })
	}

	nc := s.count("contVol")
	for i := 0; i < nc && s.err == nil; i++ {
		cont := s.str("continent")
		v := s.f64()
		if s.err == nil {
			c.contVol[geo.Continent(cont)] = v
		}
	}

	if s.u8() == 1 {
		if s.err == nil && c.focusAlias == "" {
			s.err = fmt.Errorf("flows: snapshot has focus series but options have no focus alias")
			return nil
		}
		c.focusDownAll = restoreSeriesInto(s, c.focusDownAll)
		c.focusDownRegion = restoreSeriesInto(s, c.focusDownRegion)
		c.focusDownEU = restoreSeriesInto(s, c.focusDownEU)
		c.focusHoursAll = bounded(s, s.u64s, "focusHoursAll", nLines*c.hw)
		c.focusHoursRegion = bounded(s, s.u64s, "focusHoursRegion", nLines*c.hw)
		c.focusHoursEU = bounded(s, s.u64s, "focusHoursEU", nLines*c.hw)
	}
	if s.err != nil {
		return nil
	}
	return c
}

// fixed reads a slice that must have exactly n elements.
func fixed[T any](s *snapReader, read func(string) []T, what string, n int) []T {
	v := read(what)
	if s.err == nil && len(v) != n {
		s.err = fmt.Errorf("flows: snapshot %s length %d, want %d", what, len(v), n)
	}
	return v
}

// noBitsPast fails the read when any stride of a bitset arena has a
// bit set at or past n: padding that a decoder would otherwise follow
// as an out-of-range ID.
func (s *snapReader) noBitsPast(what string, bits []uint64, stride, n int) {
	for base := 0; s.err == nil && base < len(bits); base += stride {
		for i := n >> 6; i < stride && base+i < len(bits); i++ {
			w := bits[base+i]
			if i == n>>6 {
				w >>= uint(n & 63)
			}
			if w != 0 {
				s.err = fmt.Errorf("flows: snapshot %s has a bit set past %d", what, n)
			}
		}
	}
}

// maybeFixedU64s reads a slice that is either empty (stored nil) or
// exactly n elements.
func (s *snapReader) maybeFixedU64s(what string, n int) []uint64 {
	v := s.u64s(what)
	if len(v) == 0 {
		return nil
	}
	if s.err == nil && len(v) != n {
		s.err = fmt.Errorf("flows: snapshot %s length %d, want %d", what, len(v), n)
	}
	return v
}

// bounded reads a slice that may be any length up to max (grown slices
// stop at the highest touched ID); empty reads as nil.
func bounded[T any](s *snapReader, read func(string) []T, what string, max int) []T {
	v := read(what)
	if len(v) == 0 {
		return nil
	}
	if s.err == nil && len(v) > max {
		s.err = fmt.Errorf("flows: snapshot %s length %d exceeds %d", what, len(v), max)
	}
	return v
}

func restoreSeries(s *snapReader, label string, hours int) *analysis.Series {
	if s.u8() == 0 {
		return nil
	}
	vals := s.f64s("series")
	if s.err == nil && len(vals) != hours {
		s.err = fmt.Errorf("flows: snapshot series length %d, want %d", len(vals), hours)
	}
	if s.err != nil {
		return nil
	}
	return &analysis.Series{Label: label, Values: vals}
}

// restoreSeriesInto fills an already-allocated series (the focus series
// NewCollector creates) with the stored values.
func restoreSeriesInto(s *snapReader, ser *analysis.Series) *analysis.Series {
	if s.u8() == 0 {
		return ser
	}
	vals := s.f64s("focus series")
	if s.err == nil && len(vals) != len(ser.Values) {
		s.err = fmt.Errorf("flows: snapshot focus series length %d, want %d", len(vals), len(ser.Values))
	}
	if s.err != nil {
		return ser
	}
	ser.Values = vals
	return ser
}

// --- WireTables snapshot -------------------------------------------------

// Snapshot encodes the dictionary tables so a stream resumed from a
// checkpoint (a recorded-file tail, typically) can keep decoding batch
// frames without a fresh hello/dictionary exchange. Backend entries
// store their resolved dense IDs directly — the window snapshot's index
// fingerprint already pins the ID assignment.
func (t *WireTables) Snapshot(dst io.Writer) error {
	s := &snapWriter{w: dst}
	s.write([]byte(wireTablesMagic))
	s.u16(wireTablesVersion)
	s.u32(uint32(len(t.lines)))
	for i := range t.lines {
		if t.lines[i].valid {
			s.u8(1)
			s.addr(t.lines[i].addr)
		} else {
			s.u8(0)
		}
	}
	s.u32(uint32(len(t.backends)))
	for _, b := range t.backends {
		s.i64(int64(b))
	}
	return s.err
}

// RestoreWireTables decodes a WireTables snapshot into fresh tables
// bound to sink (exclusion is recomputed against the sink's current
// exclusion set, exactly as AddLines would).
func RestoreWireTables(src io.Reader, sink Sink) (*WireTables, error) {
	t := sink.NewWireTables()
	s := &snapReader{r: src}
	magic := make([]byte, len(wireTablesMagic))
	s.read(magic)
	if s.err == nil && string(magic) != wireTablesMagic {
		return nil, fmt.Errorf("flows: not a wire-tables snapshot (magic %q)", magic)
	}
	if v := s.u16(); s.err == nil && v != wireTablesVersion {
		return nil, fmt.Errorf("flows: wire-tables snapshot version %d (want %d)", v, wireTablesVersion)
	}
	nl := s.count("wire line")
	if s.err == nil && nl > maxWireDictEntries {
		return nil, fmt.Errorf("flows: wire-tables snapshot has %d lines (limit %d)", nl, maxWireDictEntries)
	}
	t.lines = make([]wireLineEnt, 0, min(nl, snapPrealloc))
	for i := 0; i < nl && s.err == nil; i++ {
		if s.u8() == 0 {
			t.lines = append(t.lines, wireLineEnt{ccID: -1, colID: -1})
			continue
		}
		a := s.addr("wire line addr")
		if s.err != nil {
			break
		}
		_, excluded := t.excluded[a]
		t.lines = append(t.lines, wireLineEnt{addr: a, ccID: -1, colID: -1, excluded: excluded, valid: true})
	}
	t.entSlot = grown(t.entSlot, len(t.lines))
	nb := s.count("wire backend")
	if s.err == nil && nb > maxWireDictEntries {
		return nil, fmt.Errorf("flows: wire-tables snapshot has %d backends (limit %d)", nb, maxWireDictEntries)
	}
	t.backends = make([]int32, 0, min(nb, snapPrealloc))
	for i := 0; i < nb && s.err == nil; i++ {
		id := s.i64()
		if s.err == nil && (id < int64(lostBackend) || id >= int64(len(t.idx.addrs))) {
			s.err = fmt.Errorf("flows: wire-tables snapshot backend ID %d out of range", id)
			break
		}
		t.backends = append(t.backends, int32(id))
	}
	if s.err != nil {
		return nil, s.err
	}
	return t, nil
}
