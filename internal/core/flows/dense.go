package flows

import (
	"maps"
	"math/bits"
	"net/netip"

	"iotmap/internal/isp"
	"iotmap/internal/proto"
)

// Dense-ID plumbing: every aggregate in this package indexes flat
// slices and bitsets by small integer IDs instead of hashing
// netip.Addr/string keys per record. Three ID spaces exist:
//
//   - backend IDs and alias IDs are global, assigned deterministically
//     by BackendIndex at build time (sorted order), so every counter
//     and collector over one index agrees on them — bitset merges need
//     no translation.
//   - line IDs are local to each aggregate (a lineTab), assigned in
//     first-contact order. Plan addresses (isp.LineSlot) resolve by bit
//     arithmetic plus one slice load; anything else falls back to a
//     map. Merges remap donor line IDs through the donor's reverse
//     table, so shard- and vantage-crossing folds stay exact.
//   - port IDs are local to each Collector (portTab), remapped on merge
//     like line IDs.
//
// Everything converts back to addresses and names only at Study()/
// finalization, which keeps the figure outputs byte-identical to the
// historical map-keyed aggregation.

// planTabCap bounds the flat per-vantage plan tables a lineTab grows: a
// hostile or recorded feed carrying a plan-shaped address with a huge
// line index must not force a multi-hundred-MB table. Slots at or above
// the cap take the map fallback instead (correct, just not O(1)).
const planTabCap = 1 << 22

// planSpan bounds how far a vantage's plan table may reach per address
// the vantage has interned: a table of planSpan×(n+1) slots stays a
// dense accelerator for any feed that covers a fair share of its plan,
// while one stray slot (a sparse or hostile address set) takes the map
// fallback instead of sizing the table by its line index.
const planSpan = 64

// lineTab interns line addresses into a compact local ID space.
type lineTab struct {
	// plan maps a vantage's plan slot (isp.LineSlot) to local ID+1.
	plan [isp.MaxVantages][]int32
	// planN counts each vantage's interned plan addresses.
	planN [isp.MaxVantages]int32
	// other holds the IDs of addresses without a plan table entry (nil
	// until needed).
	other map[netip.Addr]int32
	// addrs is the reverse table: local ID → address.
	addrs []netip.Addr
}

// id interns a and returns its local ID; new addresses get
// len(addrs)-1 in call order.
func (t *lineTab) id(a netip.Addr) int32 {
	v, slot, plan := isp.LineSlot(a)
	plan = plan && slot < planTabCap
	var s []int32
	if plan {
		s = t.plan[v]
		if int(slot) >= len(s) && int(slot) < planSpan*(int(t.planN[v])+1) {
			s = grown(s, int(slot)+1)
			t.plan[v] = s
		}
		if int(slot) < len(s) && s[slot] != 0 {
			return s[slot] - 1
		}
	}
	// First sight of a, or a has no table entry: the map may still hold
	// it from before its vantage's table reached its slot.
	id, ok := t.other[a]
	if !ok {
		id = int32(len(t.addrs))
		t.addrs = append(t.addrs, a)
		if plan {
			t.planN[v]++
		}
	}
	switch {
	case plan && int(slot) < len(s):
		s[slot] = id + 1
	case !ok:
		if t.other == nil {
			t.other = map[netip.Addr]int32{}
		}
		t.other[a] = id
	}
	return id
}

func (t *lineTab) clone() lineTab {
	out := lineTab{planN: t.planN}
	for v, s := range t.plan {
		if s != nil {
			out.plan[v] = append([]int32(nil), s...)
		}
	}
	if t.other != nil {
		out.other = maps.Clone(t.other)
	}
	if t.addrs != nil {
		out.addrs = append([]netip.Addr(nil), t.addrs...)
	}
	return out
}

// portTab interns (transport, port) pairs into local IDs.
type portTab struct {
	ids  map[proto.PortKey]int32
	keys []proto.PortKey
}

func (t *portTab) id(k proto.PortKey) int32 {
	if id, ok := t.ids[k]; ok {
		return id
	}
	if t.ids == nil {
		t.ids = map[proto.PortKey]int32{}
	}
	id := int32(len(t.keys))
	t.ids[k] = id
	t.keys = append(t.keys, k)
	return id
}

func (t *portTab) clone() portTab {
	var out portTab
	if t.ids != nil {
		out.ids = maps.Clone(t.ids)
	}
	if t.keys != nil {
		out.keys = append([]proto.PortKey(nil), t.keys...)
	}
	return out
}

// grown extends s to length n, preserving contents and zeroing the new
// tail; growth doubles capacity so repeated one-slot extensions stay
// amortized O(1). Slices managed by grown are only ever extended, so
// re-slicing within capacity re-exposes zeroed memory.
func grown[T int32 | uint8 | uint64 | float64](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	if n <= cap(s) {
		return s[:n]
	}
	c := 2 * cap(s)
	if c < n {
		c = n
	}
	ns := make([]T, n, c)
	copy(ns, s)
	return ns
}

// --- bitset helpers ------------------------------------------------------

func setBit(s []uint64, i int) { s[i>>6] |= 1 << (uint(i) & 63) }

func hasBit(s []uint64, i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }

func popcount(s []uint64) int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

func orBits(dst, src []uint64) {
	for i, w := range src {
		dst[i] |= w
	}
}

func clearBits(s []uint64) {
	for i := range s {
		s[i] = 0
	}
}

// forEachBit calls fn with every set bit's index, ascending.
func forEachBit(words []uint64, fn func(int)) {
	for wi, w := range words {
		for w != 0 {
			fn(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}
