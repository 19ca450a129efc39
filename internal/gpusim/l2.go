package gpusim

// L2 is a sectored, set-associative tag store with LRU replacement. It
// tracks presence only — data always lives in the node address space, so
// the cache can never serve stale bytes; it exists for timing and for the
// hit/miss counters the paper analyzes. Inbound PCIe writes invalidate
// matching sectors (the hardware keeps L2 coherent with DMA), which is
// exactly what makes device-memory polling work: polls hit in L2 until the
// NIC delivers data, then one miss observes the new value.
//
// The store is sparse. A run touches a few hundred of a multi-megabyte
// cache's sets, and most of those hold one or two valid ways, so a set
// exists only once accessed and its ways grow one at a time, up to the
// associativity, as misses fill them. index maps a set number to its
// place among the accessed sets (4 bytes per set, where a slice header
// per set would cost 24), and the accessed sets' headers sit in chunks
// of l2Chunk, so a growing cache never copies them.
//
// The victim rule is the one a fully built set of zeroed (invalid, lru
// 0) ways gets from a scan that starts at way 0 and takes the first
// invalid way from way 1 on, else the least recently used way. That
// scan never takes an invalid way 0 as "first invalid": a fresh set
// fills way 1, then 2, and so on, and way 0 last; an invalid way 0 is
// picked only when ways 1..assoc-1 are all valid and its stale lru is
// the oldest. The sparse set therefore keeps its ways in that fill
// order: slot p holds way p+1, and the last slot (assoc-1) holds way 0.
// A way not yet grown is invalid with lru 0, so it is exactly the way
// the full scan would fill next.
type L2 struct {
	sectorBytes uint64
	numSets     uint64
	assoc       int
	index       []int32              // set number -> 1 + its place among the accessed sets; 0: never accessed
	chunks      []*[l2Chunk][]l2line // accessed sets in first-access order, ways in fill order
	built       int                  // sets accessed
	tick        uint64
}

// l2Chunk is the number of set headers allocated at a time.
const l2Chunk = 64

type l2line struct {
	tag   uint64 // sector index (addr / sectorBytes)
	valid bool
	lru   uint64
}

// NewL2 builds a cache of the given capacity, associativity and sector
// size (bytes). Capacity must be a multiple of assoc*sector.
func NewL2(capacity, assoc, sector int) *L2 {
	if capacity <= 0 || assoc <= 0 || sector <= 0 {
		panic("gpusim: invalid L2 geometry")
	}
	numSets := capacity / (assoc * sector)
	if numSets < 1 {
		numSets = 1
	}
	return &L2{
		sectorBytes: uint64(sector),
		numSets:     uint64(numSets),
		assoc:       assoc,
		index:       make([]int32, numSets),
	}
}

// Access looks up the sector containing addr, allocating on miss (both
// reads and writes allocate, as on Kepler-class parts). It reports whether
// the access hit.
//
//putget:hot
func (c *L2) Access(addr uint64, write bool) bool {
	sector := addr / c.sectorBytes
	k := c.index[sector%c.numSets]
	if k == 0 {
		if c.built%l2Chunk == 0 {
			c.chunks = append(c.chunks, new([l2Chunk][]l2line))
		}
		c.built++
		k = int32(c.built)
		c.index[sector%c.numSets] = k
	}
	ways := c.set(k)
	set := *ways
	c.tick++
	for i := range set {
		if set[i].valid && set[i].tag == sector {
			set[i].lru = c.tick
			return true
		}
	}
	line := l2line{tag: sector, valid: true, lru: c.tick}
	if v := c.victim(set); v < len(set) {
		set[v] = line
	} else {
		*ways = append(set, line)
	}
	return false
}

// set returns the ways of the accessed set with index entry k.
func (c *L2) set(k int32) *[]l2line {
	return &c.chunks[(k-1)/l2Chunk][(k-1)%l2Chunk]
}

// victim picks the slot a miss fills (see L2): the first invalid slot
// among ways 1..assoc-1, a new slot while the set can grow, else the
// least recently used of all ways.
func (c *L2) victim(set []l2line) int {
	way0 := c.assoc - 1
	for p := range set[:min(len(set), way0)] {
		if !set[p].valid {
			return p
		}
	}
	if len(set) < c.assoc {
		return len(set)
	}
	v := way0
	for p := 0; p < way0; p++ {
		if set[p].lru < set[v].lru {
			v = p
		}
	}
	return v
}

// InvalidateRange drops every sector overlapping [addr, addr+n). Sets
// never accessed hold nothing to drop.
func (c *L2) InvalidateRange(addr uint64, n int) {
	if n <= 0 {
		return
	}
	first := addr / c.sectorBytes
	last := (addr + uint64(n) - 1) / c.sectorBytes
	for s := first; s <= last; s++ {
		k := c.index[s%c.numSets]
		if k == 0 {
			continue
		}
		set := *c.set(k)
		for i := range set {
			if set[i].valid && set[i].tag == s {
				set[i].valid = false
			}
		}
	}
}

// Flush invalidates the whole cache.
func (c *L2) Flush() {
	for k := 1; k <= c.built; k++ {
		set := *c.set(int32(k))
		for i := range set {
			set[i].valid = false
		}
	}
}
