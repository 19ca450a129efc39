package gpusim

import (
	"math/rand"
	"testing"
)

// TestLazyL2MatchesEager drives the sparse L2 and the eager reference
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

// TestL2AllocatesSetsOnFirstAccess pins the sparse construction: a fresh
// cache holds no sets, invalidating or flushing it builds none, and an
// access builds exactly its own set with one way; a miss in that set
// grows it by one more.
func TestL2AllocatesSetsOnFirstAccess(t *testing.T) {
	c := NewL2(1536<<10, 16, 32)
	c.InvalidateRange(0, 1<<20)
	c.Flush()
	if n := c.built; n != 0 {
		t.Fatalf("fresh L2 built %d sets, want 0", n)
	}
	c.Access(0x1000, false)
	c.Access(0x1008, true)
	if n := c.built; n != 1 {
		t.Fatalf("two accesses to one sector built %d sets, want 1", n)
	}
	if n := len(*c.set(1)); n != 1 {
		t.Fatalf("one sector grew its set to %d ways, want 1", n)
	}
	c.Access(0x1000+uint64(c.numSets)*32, false) // same set, new sector
	if n := len(*c.set(1)); n != 2 {
		t.Fatalf("a second sector grew its set to %d ways, want 2", n)
	}
}

// l2Trace builds a FuzzL2 input: geometry byte g, then acc/inv steps.
func l2Trace(g byte, steps ...[2]byte) []byte {
	b := []byte{g}
	for _, s := range steps {
		b = append(b, s[0], s[1])
	}
	return b
}

// acc accesses sector s; inv invalidates one byte of it.
func acc(s byte) [2]byte { return [2]byte{0, s} }
func inv(s byte) [2]byte { return [2]byte{12, s} }

// FuzzL2 checks the hit or miss of every Access against the eager
// reference over a trace decoded from the input. The first byte picks
// the associativity (1, 4 or 16) and the set count (1 to 4); each
// following pair of bytes is one operation on a sector span two ways
// wider than the cache, so sets fill, evict and refill. The seeds
// include full sets at each associativity and holes at way 0, the way
// the victim scan treats differently.
func FuzzL2(f *testing.F) {
	for ai, assoc := range []byte{1, 4, 16} {
		g := byte(ai) // one set
		var fill [][2]byte
		for s := byte(0); s < assoc; s++ {
			fill = append(fill, acc(s))
		}
		// Full set; invalidate the sector in way 0 (filled last), then
		// miss: the LRU way 1 is evicted and the hole at way 0 stays,
		// so sector 0 misses again.
		f.Add(l2Trace(g, append(fill, inv(assoc-1), acc(assoc), acc(0), acc(1))...))
		// Full set; refresh ways 1..assoc-1, drop way 0: the hole is the
		// oldest way and is refilled.
		steps := append([][2]byte(nil), fill...)
		steps = append(steps, fill[:len(fill)-1]...)
		steps = append(steps, inv(assoc-1), acc(assoc), acc(assoc-1), acc(0))
		f.Add(l2Trace(g, steps...))
		// Holes at way 0 and way 2: the scan takes way 2 first.
		f.Add(l2Trace(g, append(fill, inv(assoc-1), inv(min(1, assoc-1)), acc(assoc), acc(assoc+1), acc(0), acc(2))...))
		// Four sets, filled past capacity, flushed and refilled.
		g4 := byte(ai) + 3*3
		var wide [][2]byte
		for s := byte(0); s < 4*(assoc+2); s++ {
			wide = append(wide, acc(s))
		}
		f.Add(l2Trace(g4, append(append(wide, [2]byte{15, 0}), wide...)...))
	}
	f.Fuzz(func(t *testing.T, trace []byte) {
		if len(trace) == 0 {
			return
		}
		const sector = 32
		assoc := []int{1, 4, 16}[trace[0]%3]
		sets := 1 + int(trace[0]/3%4)
		c := NewL2(sets*assoc*sector, assoc, sector)
		ref := newEagerL2(sets*assoc*sector, assoc, sector)
		span := sets * (assoc + 2)
		for i := 1; i+1 < len(trace); i += 2 {
			op, arg := trace[i], trace[i+1]
			addr := uint64(int(arg)%span)*sector + uint64(op>>4)
			switch op % 16 {
			case 12, 13, 14:
				n := 1 + int(op>>4)*8
				c.InvalidateRange(addr, n)
				ref.invalidate(addr, n)
			case 15:
				c.Flush()
				ref.flush()
			default:
				if got, want := c.Access(addr, op&1 == 1), ref.access(addr); got != want {
					t.Fatalf("assoc %d, %d sets, op %d: Access(sector %d) hit=%v, eager %v", assoc, sets, i/2, addr/sector, got, want)
				}
			}
		}
	})
}
