package gpusim

// L2 is a sectored, set-associative tag store with LRU replacement. It
// tracks presence only — data always lives in the node address space, so
// the cache can never serve stale bytes; it exists for timing and for the
// hit/miss counters the paper analyzes. Inbound PCIe writes invalidate
// matching sectors (the hardware keeps L2 coherent with DMA), which is
// exactly what makes device-memory polling work: polls hit in L2 until the
// NIC delivers data, then one miss observes the new value.
//
// A set's ways are allocated on its first Access: a run touches a few
// hundred sectors of a multi-megabyte cache, and a fresh set of invalid
// ways behaves exactly like an eagerly zeroed one.
type L2 struct {
	sectorBytes uint64
	numSets     uint64
	assoc       int
	sets        [][]l2line
	tick        uint64
}

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
		sets:        make([][]l2line, numSets),
	}
}

// Access looks up the sector containing addr, allocating on miss (both
// reads and writes allocate, as on Kepler-class parts). It reports whether
// the access hit.
func (c *L2) Access(addr uint64, write bool) bool {
	sector := addr / c.sectorBytes
	set := c.sets[sector%c.numSets]
	if set == nil {
		set = make([]l2line, c.assoc)
		c.sets[sector%c.numSets] = set
	}
	c.tick++
	for i := range set {
		if set[i].valid && set[i].tag == sector {
			set[i].lru = c.tick
			return true
		}
	}
	// Miss: fill the LRU way.
	victim := 0
	for i := 1; i < len(set); i++ {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = l2line{tag: sector, valid: true, lru: c.tick}
	return false
}

// InvalidateRange drops every sector overlapping [addr, addr+n). Sets
// never accessed hold nothing to drop; a nil set ranges as empty.
func (c *L2) InvalidateRange(addr uint64, n int) {
	if n <= 0 {
		return
	}
	first := addr / c.sectorBytes
	last := (addr + uint64(n) - 1) / c.sectorBytes
	for s := first; s <= last; s++ {
		set := c.sets[s%c.numSets]
		for i := range set {
			if set[i].valid && set[i].tag == s {
				set[i].valid = false
			}
		}
	}
}

// Flush invalidates the whole cache (nil sets range as empty).
func (c *L2) Flush() {
	for _, set := range c.sets {
		for i := range set {
			set[i].valid = false
		}
	}
}
