package gpusim

import (
	"math/rand"
	"testing"
)

// eagerL2 is the reference tag store: every set's ways exist up front,
// zeroed (all invalid), with the same LRU and victim rule as L2.
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

// TestLazyL2MatchesEager drives the lazy L2 and the eager reference
// through the same seeded random traces of accesses, range invalidations
// and flushes: every access must hit or miss identically. Small
// geometries force evictions from fresh and refilled sets; the default
// geometry covers sparse touches of a large cache.
func TestLazyL2MatchesEager(t *testing.T) {
	for _, g := range []struct{ capacity, assoc, sector int }{
		{1 << 10, 4, 32},
		{4 << 10, 16, 32},
		{1536 << 10, 16, 32},
	} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			lazy := NewL2(g.capacity, g.assoc, g.sector)
			ref := newEagerL2(g.capacity, g.assoc, g.sector)
			span := uint64(4 * g.capacity)
			hits := 0
			for i := 0; i < 20000; i++ {
				addr := uint64(rng.Int63n(int64(span)))
				switch op := rng.Intn(100); {
				case op < 90:
					write := op&1 == 1
					if got, want := lazy.Access(addr, write), ref.access(addr); got != want {
						t.Fatalf("geometry %+v seed %d op %d: Access(%#x) hit=%v, eager %v", g, seed, i, addr, got, want)
					} else if got {
						hits++
					}
				case op < 99:
					n := 1 + rng.Intn(4*g.sector)
					lazy.InvalidateRange(addr, n)
					ref.invalidate(addr, n)
				default:
					lazy.Flush()
					ref.flush()
				}
			}
			if hits == 0 {
				t.Fatalf("geometry %+v seed %d: trace never hit; it tests nothing", g, seed)
			}
		}
	}
}

// TestL2AllocatesSetsOnFirstAccess pins the lazy construction: a fresh
// cache holds no ways, invalidating or flushing it allocates none, and an
// access allocates exactly its own set.
func TestL2AllocatesSetsOnFirstAccess(t *testing.T) {
	c := NewL2(1536<<10, 16, 32)
	c.InvalidateRange(0, 1<<20)
	c.Flush()
	built := func() (n int) {
		for _, s := range c.sets {
			if s != nil {
				n++
			}
		}
		return n
	}
	if n := built(); n != 0 {
		t.Fatalf("fresh L2 built %d sets, want 0", n)
	}
	c.Access(0x1000, false)
	c.Access(0x1008, true)
	if n := built(); n != 1 {
		t.Fatalf("two accesses to one sector built %d sets, want 1", n)
	}
}
