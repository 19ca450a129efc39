package gpusim

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"putget/internal/memspace"
	"putget/internal/pcie"
	"putget/internal/sim"
)

// The spin oracle: a grid of one to four warps, each a spinner or a
// busy warp, runs twice: once with the spinners on SpinU64/SpinU64Until
// and once on refSpin, the explicit loop of warp ops the callback form
// replaces. A NIC posts writes into the polled device and host words at
// the reference run's probe instants, one picosecond before and after
// them, and at the instants the load's issue and the PCIe read's serve
// complete. Both runs must agree on every spin's value, verdict and
// instant, the counters, the executed events, the L2, every PCIe stat
// and the final words, and the callback form must not switch more.

// refSpin is the explicit spin loop SpinU64 replaces. marks, when not
// nil, collects the instants after the loop head, the load and the loop
// branch.
func refSpin(w *Warp, addr memspace.Addr, pre, post int, until func(v, arg uint64) bool, arg uint64, bounded bool, deadline sim.Time, marks *[]sim.Time) (uint64, bool) {
	mark := func() {
		if marks != nil {
			*marks = append(*marks, w.Now())
		}
	}
	for {
		w.Exec(pre)
		mark()
		var v uint64
		if w.g.isDevice(addr) {
			v = w.LdGlobalU64(addr)
		} else {
			v = w.LdSysU64(addr)
		}
		mark()
		if until(v, arg) {
			return v, true
		}
		w.Exec(post)
		mark()
		if bounded && w.Now() >= deadline {
			return v, false
		}
	}
}

// spinMask is the trials' predicate: every bit of mask is set. The final
// writes set every bit, so each unbounded spin ends.
func spinMask(v, mask uint64) bool { return v&mask == mask }

const (
	spinWords = 4                    // polled words per memory
	spinFinal = 40 * sim.Microsecond // when the final all-ones writes land
	spinLast  = 35 * sim.Microsecond // no random write lands at or after it
	nicRate   = 4e9                  // the NIC endpoint's egress rate
	hostRate  = 8e9                  // the host memory endpoint's egress rate
	nicWay    = 150 * sim.Nanosecond // the NIC's one-way latency
	hostWay   = 100 * sim.Nanosecond // host memory's one-way latency
	hostRdLat = 150 * sim.Nanosecond // host memory's read latency
	gpuWay    = 350 * sim.Nanosecond // testConfig's GPU one-way latency
	spinIssue = 8 * sim.Nanosecond   // testConfig's IssueCost
	spinTick  = 20 * sim.Microsecond // how long the busy-queue ticker runs
	spinMaxOp = 12                   // busy ops per warp
	spinReps  = 3                    // most spins per spinner
	spinAbs   = 97 * sim.Nanosecond  // absolute placements' grid
)

// spinServe is how long before a host-word read's finish its serve
// instant lies: the response's serialization and flight.
var spinServe = sim.BytesAt(8+pcie.TLPHeader, hostRate) + hostWay + gpuWay

// spinTrial is one decoded FuzzSpin input.
type spinTrial struct {
	slots  int // Config.PCIeSlots
	layout int // grid shape: see spinGrid
	tick   sim.Duration
	warps  [4]spinWarp
	writes []spinPick // NIC writes into the polled words
}

// spinWarp is one warp's role: a spinner runs reps spins on one word;
// a busy warp runs ops.
type spinWarp struct {
	spin      bool
	word      byte // bit 2 set: a host word
	pre, post int
	mask      uint64
	reps      int
	bounded   bool
	deadline  spinPick
	ops       []raOp
}

// spinPick places a write or a deadline against the reference run's
// marks: at one (idx), shifted by an offset (mode/3: none, one issue,
// back from a read's finish to its serve) and by -1, 0 or +1 ps
// (mode%3); modes 9 and up place it on an absolute grid.
type spinPick struct{ word, mode, idx, val byte }

func decodeSpinTrial(data []byte) spinTrial {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	var tr spinTrial
	b := next()
	tr.slots = []int{0, 1, 2}[b%3]
	tr.layout = int(b / 3 % 4)
	tr.tick = []sim.Duration{0, 0, 13 * sim.Nanosecond, 41 * sim.Nanosecond}[b/12%4]
	for _, i := range spinActive[tr.layout] {
		w := &tr.warps[i]
		k := next()
		w.spin = i == 0 || k%2 == 0
		if !w.spin {
			for j := 0; j < int(k/2%spinMaxOp); j++ {
				w.ops = append(w.ops, raOp{next(), next(), next()})
			}
			continue
		}
		w.word = k / 2 % 8
		w.reps = 1 + int(k/16%spinReps)
		w.bounded = k&0x80 != 0
		p := next()
		w.pre, w.post = int(p%16), int(p/16%8)
		if p&0x80 != 0 {
			w.pre = 0
		}
		w.mask = uint64(next())
		w.deadline = spinPick{mode: next(), idx: next()}
	}
	for n := int(next() % 8); n > 0; n-- {
		tr.writes = append(tr.writes, spinPick{next(), next(), next(), next()})
	}
	return tr
}

// spinGrid returns the kernel shape of a layout: one warp; two on one
// SM; two on two SMs; four, two per SM.
func spinGrid(layout int) (blocks, threads int) {
	return []int{1, 1, 2, 2}[layout], []int{1, 64, 1, 64}[layout]
}

// spinActive lists the warps (2*block + warp) a layout runs.
var spinActive = [4][]int{{0}, {0, 1}, {0, 2}, {0, 1, 2, 3}}

// spinEntry is one spin's outcome.
type spinEntry struct {
	warp int
	v    uint64
	ok   bool
	at   sim.Time
}

type spinResult struct {
	log      []spinEntry
	ctr      Counters
	executed uint64
	l2       *L2
	stats    [3]pcie.Stats
	words    [2 * spinWords]uint64
	handoffs uint64
}

// spinWordAddr is the polled word w names: bit 2 picks host memory.
func spinWordAddr(dev, host memspace.Addr, w byte) memspace.Addr {
	if w&4 != 0 {
		return host + memspace.Addr(8*(w%spinWords))
	}
	return dev + memspace.Addr(8*(w%spinWords))
}

// runSpinTrial runs tr with the callback spin (ref false) or refSpin.
// marks lists the instants writes and deadlines are placed against; the
// placement run passes nil, places none, bounds no spin and collects
// them into *collect.
func runSpinTrial(tr spinTrial, ref bool, marks []sim.Time, collect *[]sim.Time) spinResult {
	e := sim.NewEngine()
	defer e.Shutdown()
	space := memspace.NewSpace()
	hostRAM := space.MustMap(0x0, memspace.NewRAM("host", 1<<20))
	f := pcie.NewFabric(e, space)
	hostEP := f.AddEndpoint("hostmem", pcie.EndpointConfig{
		EgressRate: hostRate, OneWay: hostWay, ReadLatency: hostRdLat,
	})
	f.ClaimRAM(hostEP, hostRAM)
	cfg := testConfig()
	cfg.PCIeSlots = tr.slots
	g := New(e, f, cfg)
	nic := f.AddEndpoint("nic", pcie.EndpointConfig{EgressRate: nicRate, OneWay: nicWay})
	dev, host := g.DevMem().Base+0x100, hostRAM.Base+0x200
	var res spinResult

	place := func(p spinPick) (sim.Time, bool) {
		if p.mode >= 9 {
			return sim.Time(p.idx) * sim.Time(spinAbs), true
		}
		if len(marks) == 0 {
			return 0, false
		}
		t := marks[int(p.idx)%len(marks)]
		switch p.mode / 3 {
		case 1:
			t = t.Add(spinIssue)
		case 2:
			t = t.Add(-spinServe)
		}
		return t + sim.Time(p.mode%3) - 1, true
	}
	post := func(land sim.Time, addr memspace.Addr, v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		way := gpuWay
		if addr < g.DevMem().Base {
			way = hostWay
		}
		at := land - sim.Time(sim.BytesAt(len(b)+pcie.TLPHeader, nicRate)) - sim.Time(nicWay+way)
		if at < 0 {
			return
		}
		e.At(at, func() { f.PostedWrite(nic, addr, b[:]) })
	}
	for i, p := range tr.writes {
		if land, ok := place(p); ok && land < sim.Time(spinLast) {
			post(land, spinWordAddr(dev, host, p.word), uint64(p.val)<<8|uint64(i)|uint64(p.val))
		}
	}
	for w := byte(0); w < 2*spinWords; w++ {
		post(sim.Time(spinFinal), spinWordAddr(dev, host, w), ^uint64(0))
	}
	if tr.tick > 0 {
		e.Spawn("tick", func(p *sim.Proc) {
			for p.Now() < sim.Time(spinTick) {
				p.Sleep(tr.tick)
			}
		})
	}
	blocks, threads := spinGrid(tr.layout)
	done := g.Launch(KernelConfig{Blocks: blocks, ThreadsPerBlock: threads}, func(w *Warp) {
		i := w.Block*2 + w.WarpID
		sw := tr.warps[i]
		if !sw.spin {
			// Busy warps load the polled words and their neighbours, and
			// change only the words past them, so every spin still ends.
			for _, op := range sw.ops {
				word := memspace.Addr(8 * (op.b % 8))
				switch op.kind % 6 {
				case 0:
					w.Exec(1 + int(op.b%8))
				case 1:
					w.LdGlobalU64(raWord(dev, op.a))
				case 2:
					w.StGlobalU64(dev+0x40+word, uint64(op.a))
				case 3:
					w.LdSysU64(host + word)
				case 4:
					w.StSysU64(host+0x40+word, uint64(op.a))
				case 5:
					w.AtomicAddGlobalU64(dev+0x40+word, uint64(op.a))
				}
			}
			return
		}
		addr := spinWordAddr(dev, host, sw.word)
		for r := 0; r < sw.reps; r++ {
			deadline, bounded := place(sw.deadline)
			bounded = bounded && sw.bounded
			var en spinEntry
			switch {
			case collect != nil:
				en.v, en.ok = refSpin(w, addr, sw.pre, sw.post, spinMask, sw.mask, false, 0, collect)
			case ref:
				en.v, en.ok = refSpin(w, addr, sw.pre, sw.post, spinMask, sw.mask, bounded, deadline, nil)
			case bounded:
				en.v, en.ok = w.SpinU64Until(addr, sw.pre, sw.post, spinMask, sw.mask, deadline)
			default:
				en.v, en.ok = w.SpinU64(addr, sw.pre, sw.post, spinMask, sw.mask), true
			}
			en.warp, en.at = i, w.Now()
			res.log = append(res.log, en)
			w.Exec(1)
		}
	})
	e.Run()
	if !done.Done() {
		panic("spin trial: kernel did not finish")
	}
	res.ctr = g.Counters()
	res.executed = e.Executed()
	res.l2 = g.L2()
	res.stats = [3]pcie.Stats{g.Endpoint().Stats(), hostEP.Stats(), nic.Stats()}
	for w := byte(0); w < 2*spinWords; w++ {
		v, err := space.ReadU64(spinWordAddr(dev, host, w))
		if err != nil {
			panic(err)
		}
		res.words[w] = v
	}
	res.handoffs = e.Handoffs()
	return res
}

// checkSpin runs the oracle on one input.
func checkSpin(t *testing.T, data []byte) {
	tr := decodeSpinTrial(data)
	var marks []sim.Time
	runSpinTrial(tr, true, nil, &marks)
	ref := runSpinTrial(tr, true, marks, nil)
	cb := runSpinTrial(tr, false, marks, nil)
	if cb.handoffs > ref.handoffs {
		t.Errorf("the callback spin switched more: %d handoffs, %d with the loop", cb.handoffs, ref.handoffs)
	}
	cb.handoffs, ref.handoffs = 0, 0
	if !reflect.DeepEqual(cb, ref) {
		for i := range min(len(cb.log), len(ref.log)) {
			if cb.log[i] != ref.log[i] {
				t.Fatalf("spin %d: callback %+v, loop %+v", i, cb.log[i], ref.log[i])
			}
		}
		t.Fatalf("the callback spin diverged from the loop:\nspin: %s\nloop: %s", spinSummary(cb), spinSummary(ref))
	}
}

func spinSummary(r spinResult) string {
	return fmt.Sprintf("log %+v ctr %+v executed %d stats %+v words %x", r.log, r.ctr, r.executed, r.stats, r.words)
}

// spinSeeds cover a lone spinner on device and host words with writes at
// its probe instants (exactly, 1 ps either side, at the load's issue
// completion and at a read's serve), bounded spins with deadlines on and
// around probe instants, and grids that contend for the SM issue port
// and for one or two PCIe slots with busy warps and other spinners.
var spinSeeds = [][]byte{
	// A lone spinner on device word 1 (pre 5, post 2, mask 0x0f, two
	// reps): a matching write lands 1 ps before the fourth probe's issue
	// completes, and a non-matching one later. (A write to the word
	// makes the next probe miss in L2, so the instants after it shift.)
	{0, 18, 37, 0x0f, 0, 0, 2, 1, 3, 9, 0x0f, 1, 5, 30, 0x00},
	// A lone bounded spinner on host word 1 (pre 3, post 1, mask 1, two
	// reps, deadline at the fourth probe's branch): a matching write
	// lands 1 ps before the second probe's read is served, and a
	// non-matching one 1 ps after a later serve.
	{0, 170, 19, 0x01, 1, 11, 2, 5, 6, 4, 0x01, 5, 8, 10, 0x00},
	// Four warps on two SMs, one PCIe slot: a host spinner and a busy
	// warp on SM 0, a bounded device spinner (pre 0) and a busy warp on
	// SM 1; writes at serve and issue instants of both words.
	{10, 8, 18, 0x03, 0, 0,
		17, 3, 0, 1, 4, 1, 2, 0, 3, 2, 3, 0, 4, 1, 1, 3, 2, 5, 0, 5, 7, 4, 3, 0, 5,
		130, 144, 0x07, 1, 30,
		13, 3, 1, 0, 4, 2, 3, 0, 3, 5, 1, 1, 3, 2, 5, 0, 4, 7, 4,
		4, 4, 7, 4, 0x01, 1, 4, 20, 0x03, 4, 6, 31, 0x03, 1, 5, 44, 0x07},
	// Two host spinners on one SM, two PCIe slots, a queue kept busy
	// every 13 ns; the second is bounded 1 ps before a probe's mark.
	{29, 28, 55, 0x03, 0, 0, 138, 160, 0x01, 0, 14,
		3, 6, 7, 5, 0x03, 5, 6, 13, 0x01, 6, 8, 20, 0x00},
	// A lone device spinner whose word is satisfied at once (mask 0),
	// three reps, nothing queued before the final writes: every stage
	// wakes in place, so neither form may switch.
	{0, 34, 176, 0, 0, 0, 0},
	// A lone spinner on device word 0 whose word is satisfied at once,
	// behind a queue busy every 13 ns: the loop's load runs in a run-ahead
	// window and never switches, so the spin must run in it too.
	[]byte("x"),
	// A device and a bounded host spinner on two SMs, one slot, a queue
	// busy every 41 ns, an absolute deadline.
	{43, 6, 41, 0x10, 0, 0, 142, 17, 0x10, 10, 60, 2, 3, 4, 15, 0x10, 7, 7, 10, 0x10},
}

func FuzzSpin(f *testing.F) {
	for _, s := range spinSeeds {
		f.Add(s)
	}
	f.Fuzz(checkSpin)
}

// TestSpinSwitchesLess checks that the seeds exercise the callback form
// at all: across the seeds it switches less than the loop.
func TestSpinSwitchesLess(t *testing.T) {
	var cb, ref uint64
	for _, s := range spinSeeds {
		tr := decodeSpinTrial(s)
		var marks []sim.Time
		runSpinTrial(tr, true, nil, &marks)
		ref += runSpinTrial(tr, true, marks, nil).handoffs
		cb += runSpinTrial(tr, false, marks, nil).handoffs
	}
	if cb >= ref {
		t.Errorf("the seeds' callback spins switched %d times, their loops %d", cb, ref)
	}
}

// TestSpinDoesNotAllocate pins a spin at zero allocations per op on a
// device and a host word, for a spin that ends in place (its word is
// already set) and one that parks until a write lands. The predicate is
// a package-level func with its argument, and the ops come from the
// GPU's pool.
func TestSpinDoesNotAllocate(t *testing.T) {
	for _, sys := range []bool{false, true} {
		for _, park := range []bool{false, true} {
			r := newRig(t)
			nic := r.f.AddEndpoint("nic", pcie.EndpointConfig{EgressRate: nicRate, OneWay: nicWay})
			addr := r.g.DevMem().Base + 64
			if sys {
				addr = r.host.Base + 64
			}
			var spins uint64
			var b [8]byte
			write := func() { r.f.PostedWrite(nic, addr, b[:]) }
			r.g.Launch(KernelConfig{Blocks: 1, ThreadsPerBlock: 1}, func(w *Warp) {
				for {
					want := uint64(0)
					if park {
						// The next value lands several probes from now.
						want = spins + 1
						binary.LittleEndian.PutUint64(b[:], want)
						r.e.At(w.Now().Add(3*sim.Microsecond), write)
					}
					w.SpinU64(addr, 4, 2, spinEquals, want)
					spins++
				}
			})
			step := func() {
				for want := spins + 1; spins < want; {
					r.e.RunUntil(r.e.Now() + sim.Time(100*sim.Nanosecond))
				}
			}
			step()
			if got := testing.AllocsPerRun(100, step); got != 0 {
				t.Errorf("sys %v, park %v: %v allocs/op, want 0", sys, park, got)
			}
			r.e.Shutdown()
		}
	}
}

func spinEquals(v, want uint64) bool { return v == want }
