package gpusim

// eagerL2 is the reference the sparse L2 is checked against (see
// FuzzL2): the tag store as it was first written, with every set's ways
// built up front and zeroed (all invalid, lru 0), and the victim scan
// that starts at way 0 and takes the first invalid way from way 1 on.
type eagerL2 struct {
	sectorBytes, numSets uint64
	sets                 [][]l2line
	tick                 uint64
}

func newEagerL2(capacity, assoc, sector int) *eagerL2 {
	numSets := max(capacity/(assoc*sector), 1)
	c := &eagerL2{sectorBytes: uint64(sector), numSets: uint64(numSets), sets: make([][]l2line, numSets)}
	for i := range c.sets {
		c.sets[i] = make([]l2line, assoc)
	}
	return c
}

func (c *eagerL2) access(addr uint64) bool {
	sector := addr / c.sectorBytes
	set := c.sets[sector%c.numSets]
	c.tick++
	for i := range set {
		if set[i].valid && set[i].tag == sector {
			set[i].lru = c.tick
			return true
		}
	}
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

func (c *eagerL2) invalidate(addr uint64, n int) {
	if n <= 0 {
		return
	}
	for s := addr / c.sectorBytes; s <= (addr+uint64(n)-1)/c.sectorBytes; s++ {
		set := c.sets[s%c.numSets]
		for i := range set {
			if set[i].valid && set[i].tag == s {
				set[i].valid = false
			}
		}
	}
}

func (c *eagerL2) flush() {
	for _, set := range c.sets {
		for i := range set {
			set[i].valid = false
		}
	}
}
