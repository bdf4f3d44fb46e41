package flows

import (
	"fmt"
	"math"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"iotmap/internal/analysis"
	"iotmap/internal/geo"
	"iotmap/internal/netflow"
	"iotmap/internal/proto"
)

// Sliding-window aggregation: the long-lived collector service cannot
// afford the batch pipeline's "ingest a week, Study() once, exit"
// shape — it ingests endless feeds and must answer "figures for the
// trailing N hours" at any moment.
//
// The window core is ring-columnar. Each ingest shard owns a ring of
// hour buckets (absolute hour mod window hours), and a bucket is not a
// private ContactCounter+Collector pair anymore: it is a stride-packed
// arena over the rows the hour actually touched. Line and port
// interning is hoisted out of the buckets into shard-owned tables
// (lineTab/portTab), so a bucket never re-interns a netip.Addr — it
// indexes rows by dense shard line ID through a rowOf indirection, and
// all additive state for one row lives in four parallel slabs:
//
//	rowU64  (stride bw):      contact bits over the bucket-local
//	                          backend ID space (beOf/beIDs)
//	rowF64  (stride 2+asl+psl): [down, up, per-alias-slot down vol,
//	                          per-port-slot down vol]
//	rowI32  (stride asl+psl): [alias slots | port slots] (ID+1, 0=empty)
//	rowU8   (stride asl+2):   [alias-slot af* flags | continent mask,
//	                          focus-membership bits]
//
// plus per-bucket per-alias/per-backend totals (aliasVol/aliasSeen,
// portVolA/portSeenA, backendVol/backendSeen) and the focus scalars.
// Eviction recycles a bucket's arenas onto the shard's free list
// (zeroed via the ledger of what was touched), so steady-state
// eviction allocates nothing.
//
// Study()/Merged() fold the live buckets into a full-frame
// ContactCounter+Collector. The fold is incremental: the last fold
// over [ws, end) is cached and revalidated against per-bucket write
// versions; an unchanged frame costs one clone plus a re-fold of the
// newest hour's buckets. Because every aggregate's fold is
// order-independent and exact (integer-valued float64 volumes, see
// Collector.Merge), a window that never evicted is byte-identical to
// a batch run over the same feed, and an evicted window matches a
// batch run over only the surviving hours' flushes
// (TestWindowEvictionMatchesBatch).
//
// Eviction granularity caveat: scanner classification stays per-flush,
// exactly like the batch pipeline (ShardPartial.IngestBatch), but a
// bucket can only retire what landed in its hour. A flush whose records
// span multiple hours is split across buckets while its classification
// evidence was pooled, so eviction is exact for feeds whose flush
// intervals respect hour boundaries (the natural discipline of a live
// exporter flushing at least hourly) and approximate otherwise — the
// whole-window no-eviction identity holds for any flush pattern either
// way. Similarly, a flush that jumps the window forward past an hour it
// is itself still filling credits that hour's in-flight records to
// EvictedRecords without an EvictedHours increment unless an earlier
// flush already landed there; hour-pure feeds never hit the case.

// Sink is where a stream's flush intervals land: either a per-stream
// ShardPartial (the batch collector and memory mode) or a shared Window
// (the long-lived service). Both consume whole flush intervals, because
// scanner classification is a per-flush decision, and both take them in
// one shape: a RecordBatch resolved through the stream's WireTables
// (dictionary-fed by a wire stream, or record-fed by AppendRecords).
type Sink interface {
	// IngestBatch consumes one flush interval's rows (bytes already
	// scaled to volume estimates, hours relative to the study start):
	// classify each line address against the scanner threshold using
	// this flush's distinct-backend evidence, count every row's contact,
	// aggregate the kept ones. An empty batch is a no-op.
	IngestBatch(t *WireTables, b *netflow.RecordBatch)
	// NewWireTables returns empty per-stream tables bound to this sink's
	// index and exclusion set.
	NewWireTables() *WireTables
}

var (
	_ Sink = (*ShardPartial)(nil)
	_ Sink = (*Window)(nil)
)

// maxWindowShards caps the ingest shard fan-out; past a handful of
// shards the fold/snapshot cost of walking every shard's ring dominates
// any additional ingest parallelism.
const maxWindowShards = 8

// maxWindowHours caps a window's span. The dictionary wire format
// carries a row's hour in a u16 column, so no feed addresses an hour
// past 65,535; a longer ring is only memory that a snapshot header's
// hours field could demand before Restore has read a single bucket.
const maxWindowHours = math.MaxUint16

// Window is an hour-granular sliding study over the dense aggregation
// core. It is safe for concurrent use: many collector streams may
// flush into one Window (each stream lands on one ingest shard) while
// Study/Merged/Snapshot/Stats readers run.
type Window struct {
	idx  *BackendIndex
	opts Options

	epoch     time.Time
	hours     int
	threshold int
	rate      float64
	excluded  map[netip.Addr]struct{}

	// Focus configuration resolved to dense IDs (Figures 15/16).
	focusAliasID int32
	focusRegion  string

	// Dense geometry: aw is the alias bitset width, nA the alias count.
	aw, nA int

	// endA mirrors end for lock-free reads on the ingest fast path and
	// the End()/Span() accessors.
	endA atomic.Int64

	preWindow atomic.Uint64
	late      atomic.Uint64

	// writeVer stamps every completed flush; fold caches revalidate
	// against the per-bucket copies of it.
	writeVer atomic.Uint64

	// frameMu guards the frame ledger: end, the per-hour liveness and
	// record totals, and the eviction counters. Every mutation happens
	// inside some shard's critical section, so a reader holding all
	// shard locks may read these fields without frameMu.
	frameMu        sync.Mutex
	end            int64
	hourLive       []bool
	hourRecs       []uint64
	evictedHours   uint64
	evictedRecords uint64

	shards []*winShard
	// rr round-robins streams/flushes onto shards.
	rr atomic.Uint32

	// foldMu serializes Merged/Study and guards the fold caches.
	foldMu sync.Mutex
	stable *windowFold
	study  *winStudyCache
}

// winShard is one ingest shard: its own line/port intern tables, its
// own ring of hour buckets, a free list of retired bucket arenas, and
// the per-flush classification scratch. All fields are guarded by mu.
type winShard struct {
	w  *Window
	mu sync.Mutex

	lines lineTab
	ports portTab
	// pcap/pw are the shard's current port capacity and port-bitset
	// width for the per-bucket (alias, port) matrices. Growing the port
	// space re-packs those matrices on the live ring; row port slots
	// store port IDs directly and never restride.
	pcap, pw int

	ring []*winBucket
	free []*winBucket
	// rowHint/beHint/aslHint/pslHint are high-water marks across the
	// shard's buckets — row count, local-backend count, and alias/port
	// slot strides — used to presize fresh buckets so steady-state row
	// growth neither reallocates nor restrides.
	rowHint int
	beHint  int
	aslHint int
	pslHint int
	// touched lists the buckets the in-progress flush wrote to.
	touched []*winBucket
	// ents is the per-flush classification scratch, recycled across
	// calls.
	ents []endEnt
}

// Alias-slot flag bits (rowU8 alias-flag lanes).
const (
	afCert = 1 // a cert-found backend of this alias touched the row
	afDown = 2 // the row saw downstream volume toward this alias
)

// winBucket is one live hour's arena. Rows are allocated in
// first-touch order; rowOf maps shard line ID → row+1. Row state is
// slot-packed rather than dense: a typical row touches one or two
// aliases, ports, and backends out of hundreds, so each row carries a
// few find-or-create slots (growing the whole bucket's stride in the
// rare wide-row case) and a contact bitset over a bucket-local backend
// ID space that covers only the backends this hour actually saw.
type winBucket struct {
	ah      int64
	records uint64
	// ver is the writeVer of the last flush that touched the bucket;
	// mark/inFlush track the in-progress flush for the frame ledger.
	ver     uint64
	mark    uint64
	inFlush bool
	covered bool

	// Bucket-local strides: bw is the contact-bitset width over the
	// local backend space, asl/psl the alias/port slots per row, and
	// fw/iw/uw the derived rowF64 (2+asl+psl), rowI32 (asl+psl) and
	// rowU8 (asl+2) strides.
	bw, asl, psl, fw, iw, uw int

	// Local backend interning: beOf maps global backend ID → local+1,
	// beIDs is the reverse table (its length is the local space size).
	beOf  []int32
	beIDs []int32

	nRows   int
	lineIDs []int32
	rowOf   []int32
	// rowU64 is the per-row contact bitset (stride bw, local backend
	// IDs). rowF64 is [down, up, aliasVol[asl], portVol[psl]] (stride
	// fw). rowI32 packs the alias slots (alias ID+1, 0 = empty, filled
	// left to right) then the port slots (shard port ID+1), stride iw.
	// rowU8 packs the per-alias-slot af* flags then [conts, focusBits],
	// stride uw.
	rowU64 []uint64
	rowF64 []float64
	rowI32 []int32
	rowU8  []uint8

	// Per-alias hour totals: aliasVol[2a]/[2a+1] down/up volume,
	// aliasSeen down bits then up bits (stride aw each).
	aliasVol  []float64
	aliasSeen []uint64
	// Per-(alias, port) volume and presence, shard port IDs.
	portVolA  []float64
	portSeenA []uint64

	// Per-backend volume and presence in the local backend space
	// (scattered records only; contact-only backends stay zero/unset).
	backendVol  []float64
	backendSeen []uint64

	focusAllV, focusRegionV, focusEUV float64
}

// WindowStats counts what the window refused or retired.
type WindowStats struct {
	// PreWindowRecords counts records timestamped before the window
	// epoch — there is no hour to attribute them to.
	PreWindowRecords uint64
	// LateRecords counts records older than the trailing window at
	// arrival time: their hour was already evicted (or never lived).
	LateRecords uint64
	// EvictedHours counts hour buckets retired as the window advanced.
	EvictedHours uint64
	// EvictedRecords counts the aggregated records those buckets held.
	EvictedRecords uint64
}

// BucketStat is one live hour bucket's fill, for the service's /window
// endpoint.
type BucketStat struct {
	// Hour is the bucket's absolute hour index since the window epoch.
	Hour int64
	// Start is the bucket's wall-clock hour start.
	Start time.Time
	// Records is the number of records aggregated into the bucket.
	Records uint64
}

// NewWindow builds a sliding window of `hours` trailing hours over idx,
// with hour 0 anchored at epoch. hours must be a positive multiple of
// 24 (study frames are day-granular) no larger than maxWindowHours.
// opts follows NewShardPartial semantics; when the window is fed by a
// wire collector (whose streams pre-scale counters at the stream
// boundary) opts.SamplingRate must be 1, exactly as the collector
// forces on its own partials.
func NewWindow(idx *BackendIndex, epoch time.Time, hours int, opts Options) (*Window, error) {
	if hours <= 0 || hours%24 != 0 {
		return nil, fmt.Errorf("flows: window hours must be a positive multiple of 24, got %d", hours)
	}
	if hours > maxWindowHours {
		return nil, fmt.Errorf("flows: window of %d hours exceeds the %d-hour limit", hours, maxWindowHours)
	}
	idx.ensureBuilt()
	threshold := opts.ScannerThreshold
	if threshold <= 0 {
		threshold = math.MaxInt
	}
	rate := float64(opts.SamplingRate)
	if rate <= 0 {
		rate = 1
	}
	focusAliasID := int32(-1)
	if opts.FocusAlias != "" {
		for i, name := range idx.aliasNames {
			if name == opts.FocusAlias {
				focusAliasID = int32(i)
			}
		}
	}
	nA := len(idx.aliasNames)
	w := &Window{
		idx:          idx,
		opts:         opts,
		epoch:        epoch,
		hours:        hours,
		threshold:    threshold,
		rate:         rate,
		excluded:     opts.Excluded,
		focusAliasID: focusAliasID,
		focusRegion:  opts.FocusRegion,
		aw:           idx.aliasWords,
		nA:           nA,
		end:          -1,
		hourLive:     make([]bool, hours),
		hourRecs:     make([]uint64, hours),
	}
	w.endA.Store(-1)
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	if n > maxWindowShards {
		n = maxWindowShards
	}
	w.shards = make([]*winShard, n)
	for i := range w.shards {
		w.shards[i] = &winShard{
			w:    w,
			pcap: 8,
			pw:   1,
			ring: make([]*winBucket, hours),
		}
	}
	return w, nil
}

// Epoch returns the wall-clock anchor of absolute hour 0.
func (w *Window) Epoch() time.Time { return w.epoch }

// Hours returns the window length in hours.
func (w *Window) Hours() int { return w.hours }

// SamplingRate returns the byte-scaling rate the window applies at
// ingest (1 when the feed pre-scales, e.g. a wire collector's streams).
func (w *Window) SamplingRate() uint32 { return uint32(w.rate) }

// End returns the newest absolute hour ever ingested (-1 before any
// record arrived).
func (w *Window) End() int64 { return w.endA.Load() }

// startHour is the oldest hour of the study frame ending at end.
func (w *Window) startHour(end int64) int64 {
	ws := end - int64(w.hours) + 1
	if ws < 0 {
		ws = 0
	}
	return ws
}

// Span returns the current study frame: the wall-clock start of the
// oldest retained hour and the end of the newest. Before the window has
// filled once it spans the first `hours` hours after the epoch.
func (w *Window) Span() (start, end time.Time) {
	ws := w.startHour(w.endA.Load())
	return w.epoch.Add(time.Duration(ws) * time.Hour),
		w.epoch.Add(time.Duration(ws+int64(w.hours)) * time.Hour)
}

// Stats returns a snapshot of the window's refusal/eviction counters.
func (w *Window) Stats() WindowStats {
	w.frameMu.Lock()
	defer w.frameMu.Unlock()
	return WindowStats{
		PreWindowRecords: w.preWindow.Load(),
		LateRecords:      w.late.Load(),
		EvictedHours:     w.evictedHours,
		EvictedRecords:   w.evictedRecords,
	}
}

// BucketStats returns the live hours' fill, oldest first.
func (w *Window) BucketStats() []BucketStat {
	w.frameMu.Lock()
	defer w.frameMu.Unlock()
	out := make([]BucketStat, 0, w.hours)
	for ah := w.startHour(w.end); ah <= w.end; ah++ {
		slot := int(ah % int64(w.hours))
		if !w.hourLive[slot] {
			continue
		}
		out = append(out, BucketStat{
			Hour:    ah,
			Start:   w.epoch.Add(time.Duration(ah) * time.Hour),
			Records: w.hourRecs[slot],
		})
	}
	return out
}

// lockShards/unlockShards take every shard's ingest lock in index
// order (the global lock order is foldMu → shard locks → frameMu).
func (w *Window) lockShards() {
	for _, sh := range w.shards {
		sh.mu.Lock()
	}
}

func (w *Window) unlockShards() {
	for i := len(w.shards) - 1; i >= 0; i-- {
		w.shards[i].mu.Unlock()
	}
}

// advanceTo moves the newest hour to ah, retiring every live hour that
// falls out of the trailing window. Walking only the slots the new
// hours claim keeps eviction amortized O(1) per hour of progress: the
// hour in slot (end+1+k) mod hours is exactly the one hour end+1+k
// evicts. Shard buckets for evicted hours are recycled lazily, when
// their ring slot is next claimed.
func (w *Window) advanceTo(ah int64) {
	w.frameMu.Lock()
	defer w.frameMu.Unlock()
	if ah <= w.end {
		return
	}
	if w.end >= 0 {
		steps := ah - w.end
		if steps > int64(w.hours) {
			steps = int64(w.hours)
		}
		for k := int64(0); k < steps; k++ {
			i := int((w.end + 1 + k) % int64(w.hours))
			if w.hourLive[i] {
				w.evictedHours++
				w.evictedRecords += w.hourRecs[i]
				w.hourLive[i] = false
				w.hourRecs[i] = 0
			}
		}
	}
	w.end = ah
	w.endA.Store(ah)
}

// route resolves one record's absolute hour to this shard's live
// bucket, advancing (and evicting) as needed. nil means the record was
// refused (pre-epoch or older than the trailing window) and counted.
func (sh *winShard) route(ah int64, pre bool) *winBucket {
	w := sh.w
	if pre {
		w.preWindow.Add(1)
		return nil
	}
	end := w.endA.Load()
	if ah > end {
		w.advanceTo(ah)
		end = w.endA.Load()
	}
	if end-ah >= int64(w.hours) {
		w.late.Add(1)
		return nil
	}
	slot := int(ah % int64(w.hours))
	bk := sh.ring[slot]
	if bk != nil && bk.ah != ah {
		// The slot's occupant is from a lap the window already left
		// (bk.ah ≤ ah-hours: same residue, and ah is in-window).
		sh.recycle(bk)
		bk = nil
	}
	if bk == nil {
		bk = sh.takeBucket(ah)
		sh.ring[slot] = bk
	}
	if !bk.inFlush {
		bk.inFlush = true
		bk.mark = bk.records
		sh.touched = append(sh.touched, bk)
	}
	return bk
}

// endFlush completes the in-progress flush: stamp a fresh write
// version on every touched bucket and credit its new records to the
// frame ledger (or straight to EvictedRecords if the flush itself
// advanced the window past the bucket's hour).
func (sh *winShard) endFlush() {
	if len(sh.touched) == 0 {
		return
	}
	w := sh.w
	ver := w.writeVer.Add(1)
	w.frameMu.Lock()
	for i, bk := range sh.touched {
		sh.touched[i] = nil
		if !bk.inFlush {
			continue // recycled mid-flush; recycle() already credited it
		}
		bk.inFlush = false
		bk.ver = ver
		delta := bk.records - bk.mark
		if w.end-bk.ah < int64(w.hours) {
			slot := int(bk.ah % int64(w.hours))
			w.hourLive[slot] = true
			w.hourRecs[slot] += delta
		} else {
			w.evictedRecords += delta
		}
	}
	w.frameMu.Unlock()
	sh.touched = sh.touched[:0]
}

// takeBucket pops (or allocates) a bucket arena for hour ah, presized
// to the shard's row high-water mark. All slices are managed by grown,
// so recycled capacity re-exposes zeroed memory.
func (sh *winShard) takeBucket(ah int64) *winBucket {
	w := sh.w
	var bk *winBucket
	if n := len(sh.free); n > 0 {
		bk = sh.free[n-1]
		sh.free[n-1] = nil
		sh.free = sh.free[:n-1]
	} else {
		bk = &winBucket{}
	}
	bk.ah = ah
	// Presize past the high-water marks: bucket fills creep, and a hint
	// that lags by one row would re-grow every slab on every bucket.
	beHint := sh.beHint + sh.beHint/4 + 16
	if beHint < 128 {
		beHint = 128
	}
	bk.bw = (beHint + 63) / 64
	bk.asl, bk.psl = 4, 4
	if bk.asl < sh.aslHint {
		bk.asl = sh.aslHint
	}
	if bk.psl < sh.pslHint {
		bk.psl = sh.pslHint
	}
	bk.fw = 2 + bk.asl + bk.psl
	bk.iw = bk.asl + bk.psl
	bk.uw = bk.asl + 2
	hint := sh.capRows()
	bk.lineIDs = grown(bk.lineIDs, hint)[:0]
	bk.rowU64 = grown(bk.rowU64, hint*bk.bw)[:0]
	bk.rowF64 = grown(bk.rowF64, hint*bk.fw)[:0]
	bk.rowI32 = grown(bk.rowI32, hint*bk.iw)[:0]
	bk.rowU8 = grown(bk.rowU8, hint*bk.uw)[:0]
	// Line IDs keep interning while the bucket is live, so give rowOf
	// headroom beyond the current table or every bucket re-grows it.
	lcap := len(sh.lines.addrs)
	bk.rowOf = grown(bk.rowOf, lcap+lcap/4+64)
	bk.beOf = grown(bk.beOf, len(w.idx.addrs))
	bk.beIDs = grown(bk.beIDs, beHint)[:0]
	bk.aliasVol = grown(bk.aliasVol, 2*w.nA)
	bk.aliasSeen = grown(bk.aliasSeen, 2*w.aw)
	bk.portVolA = grown(bk.portVolA, w.nA*sh.pcap)
	bk.portSeenA = grown(bk.portSeenA, w.nA*sh.pw)
	bk.backendVol = grown(bk.backendVol, beHint)[:0]
	bk.backendSeen = grown(bk.backendSeen, bk.bw)
	return bk
}

// recycle zeroes exactly what the bucket touched and parks its arenas
// on the shard free list. If the bucket is mid-flush its un-ledgered
// records are credited to EvictedRecords (the flush jumped the window
// past its own hour).
func (sh *winShard) recycle(bk *winBucket) {
	if bk.inFlush {
		w := sh.w
		w.frameMu.Lock()
		w.evictedRecords += bk.records - bk.mark
		w.frameMu.Unlock()
		bk.inFlush = false
	}
	if bk.nRows > sh.rowHint {
		sh.rowHint = bk.nRows
	}
	for r := 0; r < bk.nRows; r++ {
		bk.rowOf[bk.lineIDs[r]] = 0
	}
	for _, g := range bk.beIDs {
		bk.beOf[g] = 0
	}
	bk.beIDs = bk.beIDs[:0]
	clear(bk.rowU64)
	clear(bk.rowF64)
	clear(bk.rowI32)
	clear(bk.rowU8)
	bk.rowU64 = bk.rowU64[:0]
	bk.rowF64 = bk.rowF64[:0]
	bk.rowI32 = bk.rowI32[:0]
	bk.rowU8 = bk.rowU8[:0]
	bk.lineIDs = bk.lineIDs[:0]
	bk.nRows = 0
	clear(bk.aliasVol)
	clearBits(bk.aliasSeen)
	clear(bk.portVolA)
	clearBits(bk.portSeenA)
	clear(bk.backendVol)
	bk.backendVol = bk.backendVol[:0]
	clearBits(bk.backendSeen)
	bk.backendSeen = bk.backendSeen[:0]
	bk.focusAllV, bk.focusRegionV, bk.focusEUV = 0, 0, 0
	bk.covered = false
	bk.records, bk.mark, bk.ver = 0, 0, 0
	sh.free = append(sh.free, bk)
}

// capRows is the row capacity fresh slabs (and restrides) allocate
// for: the shard high-water plus creep headroom, so steady-state row
// appends stay inside capacity.
func (sh *winShard) capRows() int {
	n := sh.rowHint + sh.rowHint/4 + 16
	// The cold-start floor is deliberately generous: a feed that is not
	// hour-ordered (per-line simulation, replays) touches every ring
	// hour before any high-water mark is learned, and a low floor makes
	// each of those buckets climb the doubling ladder from scratch.
	if n < 256 {
		n = 256
	}
	return n
}

// rowFor finds or creates the bucket row of shard line ID lid.
func (sh *winShard) rowFor(bk *winBucket, lid int32) int {
	bk.rowOf = grown(bk.rowOf, int(lid)+1)
	if r := bk.rowOf[lid]; r != 0 {
		return int(r) - 1
	}
	r := bk.nRows
	bk.nRows++
	if bk.nRows > sh.rowHint {
		sh.rowHint = bk.nRows
	}
	bk.rowOf[lid] = int32(r) + 1
	bk.lineIDs = grown(bk.lineIDs, r+1)
	bk.lineIDs[r] = lid
	bk.rowU64 = grown(bk.rowU64, (r+1)*bk.bw)
	bk.rowF64 = grown(bk.rowF64, (r+1)*bk.fw)
	bk.rowI32 = grown(bk.rowI32, (r+1)*bk.iw)
	bk.rowU8 = grown(bk.rowU8, (r+1)*bk.uw)
	return r
}

// portID interns a port key, growing the shard's (alias, port)
// matrices when the ID space outgrows pcap.
func (sh *winShard) portID(k proto.PortKey) int {
	p := int(sh.ports.id(k))
	if p >= sh.pcap {
		sh.growPorts(p + 1)
	}
	return p
}

// growPorts doubles the shard's port capacity to cover need and
// re-packs every live ring bucket's per-alias port matrices. Row port
// slots store port IDs directly and are unaffected. Free-list buckets
// are all-zero, so their stride is meaningless until takeBucket
// resizes them.
func (sh *winShard) growPorts(need int) {
	w := sh.w
	opcap, opw := sh.pcap, sh.pw
	npcap := 2 * sh.pcap
	if npcap < 32 {
		npcap = 32
	}
	for npcap < need {
		npcap *= 2
	}
	sh.pcap = npcap
	sh.pw = (npcap + 63) / 64
	for _, bk := range sh.ring {
		if bk == nil {
			continue
		}
		npv := make([]float64, w.nA*sh.pcap)
		nps := make([]uint64, w.nA*sh.pw)
		for a := 0; a < w.nA; a++ {
			copy(npv[a*sh.pcap:a*sh.pcap+opcap], bk.portVolA[a*opcap:(a+1)*opcap])
			copy(nps[a*sh.pw:a*sh.pw+opw], bk.portSeenA[a*opw:(a+1)*opw])
		}
		bk.portVolA = npv
		bk.portSeenA = nps
	}
}

// beLocal interns global backend ID be into the bucket's local space,
// widening the contact-bitset stride when the space outgrows it.
func (sh *winShard) beLocal(bk *winBucket, be int32) int {
	if lb := bk.beOf[be]; lb != 0 {
		return int(lb) - 1
	}
	n := len(bk.beIDs)
	if n >= bk.bw*64 {
		obw := bk.bw
		bk.bw = 2 * obw
		cr := sh.capRows()
		if cr < bk.nRows {
			cr = bk.nRows
		}
		nu := make([]uint64, bk.nRows*bk.bw, cr*bk.bw)
		for r := 0; r < bk.nRows; r++ {
			copy(nu[r*bk.bw:r*bk.bw+obw], bk.rowU64[r*obw:(r+1)*obw])
		}
		bk.rowU64 = nu
		bk.backendSeen = grown(bk.backendSeen, bk.bw)
	}
	bk.beIDs = append(bk.beIDs, be)
	if n+1 > sh.beHint {
		sh.beHint = n + 1
	}
	bk.beOf[be] = int32(n) + 1
	return n
}

// ccSet records contact evidence (line row → backend) in the row's
// local-space contact bitset and returns the backend's local ID.
func (sh *winShard) ccSet(bk *winBucket, row int, be int32) int {
	lb := sh.beLocal(bk, be)
	setBit(bk.rowU64[row*bk.bw:], lb)
	return lb
}

// aliasSlot finds or creates the row's slot for alias a. Slots fill
// left to right; a full row doubles the bucket's alias stride.
func (sh *winShard) aliasSlot(bk *winBucket, row, a int) int {
	base := row * bk.iw
	for i := 0; i < bk.asl; i++ {
		switch bk.rowI32[base+i] {
		case int32(a) + 1:
			return i
		case 0:
			bk.rowI32[base+i] = int32(a) + 1
			return i
		}
	}
	i := bk.asl
	sh.restrideRows(bk, 2*bk.asl, bk.psl)
	bk.rowI32[row*bk.iw+i] = int32(a) + 1
	return i
}

// portSlot finds or creates the row's slot for shard port ID pid.
func (sh *winShard) portSlot(bk *winBucket, row, pid int) int {
	base := row*bk.iw + bk.asl
	for i := 0; i < bk.psl; i++ {
		switch bk.rowI32[base+i] {
		case int32(pid) + 1:
			return i
		case 0:
			bk.rowI32[base+i] = int32(pid) + 1
			return i
		}
	}
	i := bk.psl
	sh.restrideRows(bk, bk.asl, 2*bk.psl)
	bk.rowI32[row*bk.iw+bk.asl+i] = int32(pid) + 1
	return i
}

// restrideRows re-packs the row slabs to wider alias/port slot strides
// (the rare row that outgrows its slots pays for the whole bucket).
// New slabs carry capRows of spare capacity so later row appends stay
// amortized, and the shard slot hints rise so future buckets start at
// the wider stride instead of restriding again.
func (sh *winShard) restrideRows(bk *winBucket, nasl, npsl int) {
	oasl, opsl, ofw, oiw, ouw := bk.asl, bk.psl, bk.fw, bk.iw, bk.uw
	fw := 2 + nasl + npsl
	iw := nasl + npsl
	uw := nasl + 2
	cr := sh.capRows()
	if cr < bk.nRows {
		cr = bk.nRows
	}
	nf := make([]float64, bk.nRows*fw, cr*fw)
	for r := 0; r < bk.nRows; r++ {
		of := bk.rowF64[r*ofw : (r+1)*ofw]
		nfr := nf[r*fw : (r+1)*fw]
		nfr[0], nfr[1] = of[0], of[1]
		copy(nfr[2:2+oasl], of[2:2+oasl])
		copy(nfr[2+nasl:2+nasl+opsl], of[2+oasl:2+oasl+opsl])
	}
	bk.rowF64 = nf
	ni := make([]int32, bk.nRows*iw, cr*iw)
	for r := 0; r < bk.nRows; r++ {
		copy(ni[r*iw:r*iw+oasl], bk.rowI32[r*oiw:r*oiw+oasl])
		copy(ni[r*iw+nasl:r*iw+nasl+opsl], bk.rowI32[r*oiw+oasl:(r+1)*oiw])
	}
	bk.rowI32 = ni
	if nasl != oasl {
		nu := make([]uint8, bk.nRows*uw, cr*uw)
		for r := 0; r < bk.nRows; r++ {
			copy(nu[r*uw:r*uw+oasl], bk.rowU8[r*ouw:r*ouw+oasl])
			nu[r*uw+nasl] = bk.rowU8[r*ouw+oasl]
			nu[r*uw+nasl+1] = bk.rowU8[r*ouw+oasl+1]
		}
		bk.rowU8 = nu
	}
	bk.asl, bk.psl, bk.fw, bk.iw, bk.uw = nasl, npsl, fw, iw, uw
	if nasl > sh.aslHint {
		sh.aslHint = nasl
	}
	if npsl > sh.pslHint {
		sh.pslHint = npsl
	}
}

// scatter folds one kept, non-excluded record into a bucket row — the
// ring-columnar equivalent of Collector.ingestDense at bucket-local
// hour 0. lb is the record backend's local ID (from ccSet).
func (sh *winShard) scatter(bk *winBucket, row int, backendID int32, lb int, down bool, pid int, bytes float64) {
	w := sh.w
	bi := &w.idx.infos[backendID]
	a := int(bi.aliasID)
	bk.covered = true
	si := sh.aliasSlot(bk, row, a)
	if bi.certFound {
		bk.rowU8[row*bk.uw+si] |= afCert
	}
	if down {
		pi := sh.portSlot(bk, row, pid)
		f := bk.rowF64[row*bk.fw:]
		f[0] += bytes
		bk.rowU8[row*bk.uw+si] |= afDown
		f[2+si] += bytes
		f[2+bk.asl+pi] += bytes
		bk.aliasVol[2*a] += bytes
		setBit(bk.aliasSeen, a)
	} else {
		bk.rowF64[row*bk.fw+1] += bytes
		bk.aliasVol[2*a+1] += bytes
		setBit(bk.aliasSeen[w.aw:], a)
	}
	bk.portVolA[a*sh.pcap+pid] += bytes
	setBit(bk.portSeenA[a*sh.pw:], pid)
	bk.backendVol = grown(bk.backendVol, lb+1)
	bk.backendVol[lb] += bytes
	setBit(bk.backendSeen, lb)
	bk.rowU8[row*bk.uw+bk.asl] |= contBit(bi.cont)
	if int32(a) == w.focusAliasID {
		fb := uint8(1)
		if down {
			bk.focusAllV += bytes
		}
		switch {
		case bi.region == w.focusRegion:
			fb |= 2
			if down {
				bk.focusRegionV += bytes
			}
		case bi.cont == geo.Europe:
			fb |= 4
			if down {
				bk.focusEUV += bytes
			}
		}
		bk.rowU8[row*bk.uw+bk.asl+1] |= fb
	}
}

// IngestBatch implements Sink. Row hours are epoch-relative study hours
// exactly as the wire collector rebases them and AppendRecords floors
// them (negative = before the epoch); rows beyond the newest hour
// advance the window. Classification mirrors ShardPartial.IngestBatch:
// per-flush evidence over every row with an indexed backend, exclusion
// per line address, contacts counted regardless of the scanner verdict;
// only kept rows count toward a bucket's Records. The tables stay bound
// to one ingest shard (their winID memos are shard line IDs), which is
// the per-stream parallelism unit.
func (w *Window) IngestBatch(t *WireTables, b *netflow.RecordBatch) {
	if b.Len() == 0 {
		return
	}
	sh := t.shard
	if sh == nil || sh.w != w {
		if sh != nil {
			// Tables previously bound to another window: the memoized
			// line IDs are meaningless here.
			for i := range t.lines {
				t.lines[i].winID = 0
			}
		}
		sh = w.shards[int((w.rr.Add(1)-1)%uint32(len(w.shards)))]
		t.shard = sh
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ents := t.classify(b, sh.ents, w.threshold)
	sh.ents = ents

	// Route every row to its hour bucket — contact evidence always,
	// scatter only for kept rows of non-excluded lines. Line IDs are
	// shard-table IDs memoized on the tables (winID).
	for i, bi := range b.Backend {
		be := t.backends[bi]
		if be < 0 {
			continue
		}
		h := int64(b.Hour[i])
		bk := sh.route(h, h < 0)
		if bk == nil {
			continue
		}
		li := b.Line[i]
		ln := &t.lines[li]
		lid := ln.winID - 1
		if lid < 0 {
			lid = sh.lines.id(ln.addr)
			ln.winID = lid + 1
		}
		row := sh.rowFor(bk, lid)
		lb := sh.ccSet(bk, row, be)
		if ents[t.entSlot[li]-1].over || ln.excluded {
			continue
		}
		port := proto.PortKey{Port: b.Port[i]}
		if b.Proto[i] == netflow.ProtoUDP {
			port.Transport = proto.UDP
		}
		sh.scatter(bk, row, be, lb, b.Down[i], sh.portID(port), float64(b.Bytes[i])*w.rate)
		bk.records++
	}
	t.endClassify()
	sh.endFlush()
}

// NewWireTables implements Sink: fresh dictionary tables resolved
// against the window's index and exclusion set, bound round-robin to
// one ingest shard.
func (w *Window) NewWireTables() *WireTables {
	sh := w.shards[int((w.rr.Add(1)-1)%uint32(len(w.shards)))]
	return &WireTables{idx: w.idx, excluded: w.excluded, shard: sh}
}

// --- Incremental fold ----------------------------------------------------

// windowFold is one materialized trailing-frame fold: the full-frame
// ContactCounter+Collector plus the per-shard ID remap memos that let
// later buckets fold in without rescanning the intern tables.
type windowFold struct {
	ws, end int64
	// ver is the writeVer the fold is current to (only meaningful on
	// the cached stable fold).
	ver uint64
	cc  *ContactCounter
	col *Collector
	// Per-shard memos: shard line/port ID → fold ID+1 (0 = unmapped).
	ccRemap, colRemap, portRemap [][]int32
}

// winStudyCache memoizes the last Study() result for an unchanged
// window state.
type winStudyCache struct {
	ver uint64
	end int64
	cc  *ContactCounter
	st  *Study
}

// newFoldFrame builds an empty fold over the nDays-day frame from ws.
func (w *Window) newFoldFrame(ws, end int64, nDays int) *windowFold {
	days := make([]time.Time, nDays)
	start := w.epoch.Add(time.Duration(ws) * time.Hour)
	for i := range days {
		days[i] = start.Add(time.Duration(i) * 24 * time.Hour)
	}
	n := len(w.shards)
	return &windowFold{
		ws:        ws,
		end:       end,
		cc:        NewContactCounter(w.idx),
		col:       NewCollector(w.idx, days, w.opts),
		ccRemap:   make([][]int32, n),
		colRemap:  make([][]int32, n),
		portRemap: make([][]int32, n),
	}
}

// cloneFold deep-copies a fold so the stable cache survives the caller
// mutating (or keeping) the returned aggregates.
func cloneFold(f *windowFold) *windowFold {
	return &windowFold{
		ws:        f.ws,
		end:       f.end,
		ver:       f.ver,
		cc:        f.cc.clone(),
		col:       f.col.clone(),
		ccRemap:   cloneNested(f.ccRemap),
		colRemap:  cloneNested(f.colRemap),
		portRemap: cloneNested(f.portRemap),
	}
}

// dirtySince reports whether any live bucket with hour in [lo, hi) was
// flushed into after write version ver. Caller holds all shard locks.
func (w *Window) dirtySince(lo, hi int64, ver uint64) bool {
	for _, sh := range w.shards {
		for _, bk := range sh.ring {
			if bk != nil && bk.ah >= lo && bk.ah < hi && bk.ver > ver {
				return true
			}
		}
	}
	return false
}

// bucketAt returns the shard's bucket for hour ah, or nil if the ring
// slot is empty or holds another lap's hour.
func (sh *winShard) bucketAt(ah int64) *winBucket {
	if bk := sh.ring[ah%int64(len(sh.ring))]; bk != nil && bk.ah == ah {
		return bk
	}
	return nil
}

// foldRange folds every live bucket with hour in [lo, hi) into f.
// Caller holds all shard locks.
func (w *Window) foldRange(f *windowFold, lo, hi int64) {
	for si, sh := range w.shards {
		for _, bk := range sh.ring {
			if bk != nil && bk.ah >= lo && bk.ah < hi {
				w.foldBucketInto(f, si, sh, bk)
			}
		}
	}
}

// foldBucketInto adds one bucket's full state to the fold at hour
// offset bk.ah-f.ws. The field enumeration mirrors ingestDense; the
// window≡batch identity tests pin the equivalence.
func (w *Window) foldBucketInto(f *windowFold, si int, sh *winShard, bk *winBucket) {
	hourOff := int(bk.ah - f.ws)
	dayOff := hourOff / 24
	cc, col := f.cc, f.col

	f.ccRemap[si] = grown(f.ccRemap[si], len(sh.lines.addrs))
	f.colRemap[si] = grown(f.colRemap[si], len(sh.lines.addrs))
	f.portRemap[si] = grown(f.portRemap[si], len(sh.ports.keys))
	ccRemap, colRemap, portRemap := f.ccRemap[si], f.colRemap[si], f.portRemap[si]
	port := func(p int) int {
		cp := portRemap[p]
		if cp == 0 {
			cp = col.ports.id(sh.ports.keys[p]) + 1
			portRemap[p] = cp
		}
		return int(cp) - 1
	}

	for r := 0; r < bk.nRows; r++ {
		lid := bk.lineIDs[r]

		cid := ccRemap[lid]
		if cid == 0 {
			cid = cc.lineID(sh.lines.addrs[lid]) + 1
			ccRemap[lid] = cid
		}
		dst := cc.bits[int(cid-1)*cc.words : int(cid)*cc.words]
		forEachBit(bk.rowU64[r*bk.bw:(r+1)*bk.bw], func(lb int) {
			setBit(dst, int(bk.beIDs[lb]))
		})

		conts := bk.rowU8[r*bk.uw+bk.asl]
		if conts == 0 {
			continue // contact evidence only: scanner or excluded line
		}
		tid := colRemap[lid]
		if tid == 0 {
			tid = col.lineID(sh.lines.addrs[lid]) + 1
			colRemap[lid] = tid
		}
		t := int(tid) - 1
		fr := bk.rowF64[r*bk.fw : (r+1)*bk.fw]

		col.lineDaily[t*2*col.ds+2*dayOff] += fr[0]
		col.lineDaily[t*2*col.ds+2*dayOff+1] += fr[1]
		col.lineConts[t] |= conts
		for i := 0; i < bk.asl; i++ {
			id := bk.rowI32[r*bk.iw+i]
			if id == 0 {
				break
			}
			a := int(id) - 1
			fl := bk.rowU8[r*bk.uw+i]
			setBit(col.lineAliasBits[t*col.aw:], a)
			if fl&afCert != 0 {
				setBit(col.lineCertBits[t*col.aw:], a)
			}
			lh := grown(col.lineHours[a], (t+1)*col.hw)
			col.lineHours[a] = lh
			setBit(lh[t*col.hw:], hourOff)
			if fl&afDown != 0 {
				col.laDaily[col.laSlotBase(t, a)+dayOff] += fr[2+i]
			}
		}
		for i := 0; i < bk.psl; i++ {
			id := bk.rowI32[r*bk.iw+bk.asl+i]
			if id == 0 {
				break
			}
			col.lpDaily[col.lpSlotBase(t, port(int(id)-1))+dayOff] += fr[2+bk.asl+i]
		}
		if fb := bk.rowU8[r*bk.uw+bk.asl+1]; fb != 0 {
			if fb&1 != 0 {
				col.focusHoursAll = grown(col.focusHoursAll, (t+1)*col.hw)
				setBit(col.focusHoursAll[t*col.hw:], hourOff)
			}
			if fb&2 != 0 {
				col.focusHoursRegion = grown(col.focusHoursRegion, (t+1)*col.hw)
				setBit(col.focusHoursRegion[t*col.hw:], hourOff)
			}
			if fb&4 != 0 {
				col.focusHoursEU = grown(col.focusHoursEU, (t+1)*col.hw)
				setBit(col.focusHoursEU[t*col.hw:], hourOff)
			}
		}
	}

	forEachBit(bk.aliasSeen[:w.aw], func(a int) {
		s := col.downHour[a]
		if s == nil {
			s = analysis.NewSeries(w.idx.aliasNames[a], col.hours)
			col.downHour[a] = s
		}
		s.Values[hourOff] += bk.aliasVol[2*a]
	})
	forEachBit(bk.aliasSeen[w.aw:], func(a int) {
		s := col.upHour[a]
		if s == nil {
			s = analysis.NewSeries(w.idx.aliasNames[a], col.hours)
			col.upHour[a] = s
		}
		s.Values[hourOff] += bk.aliasVol[2*a+1]
	})
	for a := 0; a < w.nA; a++ {
		forEachBit(bk.portSeenA[a*sh.pw:(a+1)*sh.pw], func(p int) {
			cp := port(p)
			pv := grown(col.portVol[a], cp+1)
			col.portVol[a] = pv
			pv[cp] += bk.portVolA[a*sh.pcap+p]
			ps := grown(col.portSeen[a], cp>>6+1)
			col.portSeen[a] = ps
			setBit(ps, cp)
		})
	}

	forEachBit(bk.backendSeen, func(lb int) {
		b := int(bk.beIDs[lb])
		bi := &w.idx.infos[b]
		v := bk.backendVol[lb]
		col.backendVol[b] += v
		vs := col.visible[bi.aliasID]
		if vs == nil {
			vs = make([]uint64, w.idx.words)
			col.visible[bi.aliasID] = vs
		}
		setBit(vs, b)
		col.contVol[bi.cont] += v
		setBit(col.backendSeen, b)
	})
	if bk.covered {
		setBit(col.coverBits, hourOff)
	}
	if col.focusDownAll != nil {
		col.focusDownAll.Values[hourOff] += bk.focusAllV
		col.focusDownRegion.Values[hourOff] += bk.focusRegionV
		col.focusDownEU.Values[hourOff] += bk.focusEUV
	}
}

// currentFoldLocked returns a private fold of the current trailing
// frame. The stable cache covers [ws, end) — it is reused untouched
// when nothing below the newest hour changed, extended in place while
// the frame start is pinned at the epoch, and rebuilt otherwise; the
// newest (still-hot) hour is overlaid onto a clone every call. Caller
// holds foldMu and all shard locks.
func (w *Window) currentFoldLocked() *windowFold {
	end := w.endA.Load()
	ws := w.startHour(end)
	ver := w.writeVer.Load()
	st := w.stable
	switch {
	case st != nil && st.ws == ws && st.end == end && !w.dirtySince(ws, end, st.ver):
		// Cache hit: nothing below the newest hour changed.
	case st != nil && st.ws == ws && st.end < end && !w.dirtySince(ws, st.end, st.ver):
		// Frame start unchanged (pre-fill): fold in the hours the end
		// passed since, including the previously-hot st.end hour.
		w.foldRange(st, st.end, end)
		st.end = end
		st.ver = ver
	default:
		st = w.newFoldFrame(ws, end, w.hours/24)
		w.foldRange(st, ws, end)
		st.ver = ver
		w.stable = st
	}
	out := cloneFold(st)
	if end >= 0 {
		w.foldRange(out, end, end+1)
	}
	return out
}

// Merged folds the surviving hour buckets into one ContactCounter and
// Collector over the current trailing frame (the last `hours` hours —
// anchored at the epoch until the window has filled once). The fold is
// served from the incremental cache plus a re-fold of the newest
// hour's buckets; the returned aggregates are private copies, so the
// window stays live and repeated calls are independent.
func (w *Window) Merged() (*ContactCounter, *Collector) {
	w.foldMu.Lock()
	defer w.foldMu.Unlock()
	w.lockShards()
	f := w.currentFoldLocked()
	w.unlockShards()
	return f.cc, f.col
}

// Study returns the finalized trailing-window analysis: the merged
// ContactCounter (Figure 5's evidence) and the named Study over the
// surviving hours. The result is cached until the next completed
// flush, so a serving endpoint polling an idle window pays nothing;
// callers must treat the returned values as read-only.
func (w *Window) Study() (*ContactCounter, *Study) {
	w.foldMu.Lock()
	defer w.foldMu.Unlock()
	w.lockShards()
	end := w.endA.Load()
	ver := w.writeVer.Load()
	if sc := w.study; sc != nil && sc.ver == ver && sc.end == end {
		w.unlockShards()
		return sc.cc, sc.st
	}
	f := w.currentFoldLocked()
	w.unlockShards()
	st := f.col.Study()
	w.study = &winStudyCache{ver: ver, end: end, cc: f.cc, st: st}
	return f.cc, st
}
