package hostsim

import (
	"fmt"
	"math/rand"
	"testing"

	"putget/internal/memspace"
	"putget/internal/pcie"
	"putget/internal/sim"
)

// The spin differential test: SpinU64/SpinU64Until must return exactly
// what a loop of ReadU64 probes returns — the same value, verdict and
// return instant — for any schedule of inbound writes.

// landing is one inbound write: v lands at addr at time at, its delivery
// event having been scheduled at posted by an event scheduled at sched.
type landing struct {
	addr   memspace.Addr
	v      uint64
	sched  sim.Time
	posted sim.Time
	at     sim.Time
}

// spinCase is one spin and the writes racing it.
type spinCase struct {
	name     string
	lat      sim.Duration
	remote   bool // watch a word in device memory (explicit PCIe probes)
	t0       sim.Time
	bounded  bool
	deadline sim.Time
	writes   []landing
}

type spinResult struct {
	v  uint64
	ok bool
	at sim.Time
}

const (
	spinWord  = memspace.Addr(0x800)
	otherWord = memspace.Addr(0x808) // the neighbouring word
	devBase   = memspace.Addr(0x1000_0000)
)

// spinPred is the predicate every case spins on.
func spinPred(v uint64) bool { return v&3 == 3 }

// runSpinCase plays c on a fresh engine, spinning with SpinU64/Until
// (elided) or with a ReadU64 loop (reference).
func runSpinCase(t *testing.T, c spinCase, elided bool) spinResult {
	t.Helper()
	e := sim.NewEngine()
	defer e.Shutdown()
	space := memspace.NewSpace()
	host := space.MustMap(0, memspace.NewRAM("host", 1<<20))
	dev := space.MustMap(devBase, memspace.NewRAM("dev", 1<<20))
	f := pcie.NewFabric(e, space)
	hostEP := f.AddEndpoint("hostmem", pcie.EndpointConfig{EgressRate: 8e9, OneWay: 100 * sim.Nanosecond, ReadLatency: 150 * sim.Nanosecond})
	devEP := f.AddEndpoint("dev", pcie.EndpointConfig{EgressRate: 8e9, OneWay: 350 * sim.Nanosecond, ReadLatency: 600 * sim.Nanosecond})
	f.ClaimRAM(hostEP, host)
	f.ClaimRAM(devEP, dev)
	cpu := New(e, f, Config{
		Name:       "cpu0",
		MemLatency: c.lat,
		HostRAM:    host,
		PCIe:       pcie.EndpointConfig{EgressRate: 16e9, OneWay: 100 * sim.Nanosecond, ReadLatency: 100 * sim.Nanosecond},
	})
	base := memspace.Addr(0)
	if c.remote {
		base = devBase
	}
	for _, w := range c.writes {
		e.At(w.sched, func() {
			e.At(w.posted, func() {
				e.At(w.at, func() {
					if err := space.WriteU64(base+w.addr, w.v); err != nil {
						t.Fatal(err)
					}
					if !c.remote {
						cpu.NotifyInboundWrite(base+w.addr, 8, w.posted)
					}
				})
			})
		})
	}
	var res spinResult
	done := false
	e.SpawnAt(c.t0, "spin", func(p *sim.Proc) {
		addr := base + spinWord
		switch {
		case elided && c.bounded:
			res.v, res.ok = cpu.SpinU64Until(p, addr, spinPred, c.deadline)
		case elided:
			res.v, res.ok = cpu.SpinU64(p, addr, spinPred), true
		default:
			for {
				res.v = cpu.ReadU64(p, addr)
				if res.ok = spinPred(res.v); res.ok || (c.bounded && p.Now() >= c.deadline) {
					break
				}
			}
		}
		res.at = p.Now()
		done = true
	})
	e.Run()
	if !done {
		t.Fatalf("%s (elided=%v): spin never returned", c.name, elided)
	}
	return res
}

// checkSpinCase runs c both ways and requires identical results.
func checkSpinCase(t *testing.T, c spinCase) spinResult {
	t.Helper()
	want := runSpinCase(t, c, false)
	if got := runSpinCase(t, c, true); got != want {
		t.Fatalf("%s: elided spin returned %+v, probe loop %+v\nwrites: %+v", c.name, got, want, c.writes)
	}
	return want
}

// TestSpinMatchesProbeLoop pins the cases the grid rule turns on.
func TestSpinMatchesProbeLoop(t *testing.T) {
	const ns = sim.Nanosecond
	t0 := sim.Time(1000 * ns)
	for _, lat := range []sim.Duration{90 * ns, sim.Microsecond} {
		grid := func(k int) sim.Time { return t0.Add(sim.Duration(k) * lat) }
		valid := func(at, posted sim.Time) []landing {
			return []landing{{addr: spinWord, v: 7, posted: posted, at: at}}
		}
		cases := []struct {
			c      spinCase
			wantAt sim.Time
			wantOK bool
		}{
			// A write landing on a probe instant: seen there when posted
			// more than one MemLatency ahead, by the next probe otherwise.
			{spinCase{name: "on-grid/posted-early", writes: valid(grid(5), grid(5).Add(-2*lat))}, grid(5), true},
			{spinCase{name: "on-grid/posted-late", writes: valid(grid(5), grid(5).Add(-lat/2))}, grid(6), true},
			{spinCase{name: "on-grid/nic-flight", writes: valid(grid(5), grid(5).Add(-250*ns))}, 0, true},
			{spinCase{name: "off-grid", writes: valid(grid(5).Add(-lat/3), grid(5).Add(-3*lat))}, grid(5), true},
			{spinCase{name: "before-entry", writes: valid(t0.Add(-ns), 0)}, grid(1), true},
			{spinCase{name: "at-entry", writes: valid(t0, t0.Add(-ns))}, grid(1), true},
			// A satisfying write undone before the probe that would see it.
			{spinCase{name: "undone", writes: []landing{
				{addr: spinWord, v: 3, posted: 0, at: grid(3).Add(-lat / 2)},
				{addr: spinWord, v: 4, posted: grid(2), at: grid(3).Add(-lat / 4)},
				{addr: otherWord, v: 3, posted: 0, at: grid(4)},
				{addr: spinWord, v: 11, posted: grid(7), at: grid(9)},
			}}, grid(9), true},
			// Bounded: the deadline on the grid, off it, and within one
			// MemLatency of entry.
			{spinCase{name: "deadline/on-grid", bounded: true, deadline: grid(4)}, grid(4), false},
			{spinCase{name: "deadline/off-grid", bounded: true, deadline: grid(4).Add(ns)}, grid(5), false},
			{spinCase{name: "deadline/near-entry", bounded: true, deadline: t0.Add(lat / 2)}, grid(1), false},
			{spinCase{name: "deadline/past", bounded: true, deadline: t0.Add(-lat)}, grid(1), false},
			{spinCase{name: "deadline/last-probe-sees", bounded: true, deadline: grid(4).Add(-ns),
				writes: valid(grid(4), grid(4).Add(-2*lat))}, grid(4), true},
			{spinCase{name: "deadline/last-probe-misses", bounded: true, deadline: grid(4).Add(-ns),
				writes: valid(grid(4), grid(4).Add(-lat/2))}, grid(4), false},
			// A write posted exactly one MemLatency before it lands on the
			// last probe, by an event that runs after the previous probe
			// in the loop but before the spin's own wakeup there: it
			// lands before the wakeup, yet the probe must not see it.
			{spinCase{name: "deadline/tie-at-last-probe", bounded: true, deadline: grid(4).Add(-ns), writes: []landing{
				{addr: spinWord, v: 7, at: grid(3).Add(-3 * lat / 4)},
				{addr: spinWord, v: 4, at: grid(3).Add(-lat / 2)},
				{addr: spinWord, v: 7, sched: grid(3).Add(-9 * lat / 10), posted: grid(3), at: grid(4)},
			}}, grid(4), false},
			{spinCase{name: "deadline/beaten", bounded: true, deadline: grid(20),
				writes: valid(grid(7).Add(-ns), 0)}, grid(7), true},
			// Off host RAM every probe crosses PCIe.
			{spinCase{name: "remote", remote: true, writes: valid(t0.Add(3*sim.Microsecond), 0)}, 0, true},
			{spinCase{name: "remote/deadline", remote: true, bounded: true, deadline: t0.Add(2 * sim.Microsecond)}, 0, false},
		}
		for _, tc := range cases {
			c := tc.c
			c.name = fmt.Sprintf("lat=%v/%s", lat, c.name)
			c.lat, c.t0 = lat, t0
			got := checkSpinCase(t, c)
			if got.ok != tc.wantOK || (tc.wantAt != 0 && got.at != tc.wantAt) {
				t.Errorf("%s: returned ok=%v at %v, want ok=%v at %v", c.name, got.ok, got.at, tc.wantOK, tc.wantAt)
			}
		}
	}
}

// TestSpinMatchesProbeLoopRandom replays seeded write schedules: values
// that do and do not satisfy the predicate, writes to the neighbouring
// word, landings on and off the probe grid, and post-to-land gaps on both
// sides of one MemLatency. A gap of exactly one MemLatency is left out:
// whether such a write beats the probe at its landing instant depends on
// the order in which two events at the post instant were scheduled,
// which the post time does not carry.
func TestSpinMatchesProbeLoopRandom(t *testing.T) {
	const ns = sim.Nanosecond
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lat := []sim.Duration{90 * ns, sim.Microsecond}[seed%2]
		c := spinCase{
			name:   fmt.Sprintf("seed=%d", seed),
			lat:    lat,
			remote: seed%10 == 0,
			t0:     sim.Time(rng.Int63n(int64(4 * lat))),
		}
		grid := func(k int) sim.Time { return c.t0.Add(sim.Duration(k) * lat) }
		horizon := 30
		if c.bounded = rng.Intn(2) == 0; c.bounded {
			switch rng.Intn(3) {
			case 0:
				c.deadline = grid(1 + rng.Intn(horizon))
			case 1:
				c.deadline = grid(rng.Intn(horizon)).Add(sim.Duration(1 + rng.Int63n(int64(lat-1))))
			default:
				c.deadline = c.t0.Add(sim.Duration(rng.Int63n(int64(lat))))
			}
		}
		for i, n := 0, rng.Intn(12); i < n; i++ {
			w := landing{addr: spinWord, v: uint64(rng.Intn(8))}
			if rng.Intn(4) == 0 {
				w.addr = otherWord
			}
			if rng.Intn(2) == 0 {
				w.at = grid(rng.Intn(horizon + 1))
			} else {
				w.at = grid(0).Add(sim.Duration(rng.Int63n(int64(horizon) * int64(lat))))
			}
			var gap sim.Duration
			switch rng.Intn(3) {
			case 0:
				gap = sim.Duration(rng.Int63n(int64(lat))) // less than one MemLatency, or zero
			case 1:
				gap = lat + sim.Duration(1+rng.Int63n(int64(2*lat)))
			default:
				gap = 250 * ns // the NIC-to-host flight
			}
			if gap == lat || sim.Duration(w.at) < gap {
				gap = 0
			}
			w.posted = w.at.Add(-gap)
			c.writes = append(c.writes, w)
		}
		if !c.bounded {
			// An unbounded spin needs a satisfying write to return.
			at := grid(horizon + 1 + rng.Intn(3))
			c.writes = append(c.writes, landing{addr: spinWord, v: 3, posted: at.Add(-2 * lat), at: at})
		}
		checkSpinCase(t, c)
	}
}

// TestSpinDoesNotAllocate pins the host spin, its signal parks and the
// word accesses at zero allocations per round.
func TestSpinDoesNotAllocate(t *testing.T) {
	r := newRig(t)
	addr := memspace.Addr(0x900)
	want := uint64(0)
	pred := func(v uint64) bool { return v == want }
	r.e.Spawn("spin", func(p *sim.Proc) {
		for {
			want++
			r.cpu.SpinU64(p, addr, pred)
			want++
			r.cpu.SpinU64Until(p, addr, pred, p.Now().Add(sim.Millisecond))
			r.cpu.WriteU64(p, addr+8, r.cpu.ReadU64(p, addr))
		}
	})
	r.e.Spawn("writer", func(p *sim.Proc) {
		for v := uint64(1); ; v++ {
			p.Sleep(5 * sim.Microsecond)
			if err := r.f.Space().WriteU64(addr, v); err != nil {
				t.Error(err)
				return
			}
			r.cpu.NotifyInboundWrite(addr, 8, p.Now().Add(-sim.Microsecond))
		}
	})
	var tick sim.Time
	round := func() {
		tick += sim.Time(10 * sim.Microsecond)
		r.e.RunUntil(tick)
	}
	round()
	if got := testing.AllocsPerRun(200, round); got != 0 {
		t.Errorf("spin round: %v allocs/op, want 0", got)
	}
	if want < 100 {
		t.Fatalf("spinner made %d rounds, want hundreds", want)
	}
}
