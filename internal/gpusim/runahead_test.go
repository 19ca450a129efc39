package gpusim

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"putget/internal/memspace"
	"putget/internal/pcie"
	"putget/internal/sim"
)

// The run-ahead oracle: a random single-warp kernel runs twice, with
// run-ahead on and off, beside a host and a NIC endpoint that post
// writes into the kernel's words and a reader that samples them over
// PCIe. Both runs must agree on every op's value and instant, the final
// memory, every counter, the executed events and every sample.

const (
	raWords = 8                     // device words the kernel and the sources share
	raTick  = 100 * sim.Microsecond // how long the busy-queue ticker runs
)

// raTrial is one decoded fuzz input.
type raTrial struct {
	tick   sim.Duration // busy-queue ticker period; 0 for none
	launch sim.Time     // when the host launches a second, short kernel; 0 for never
	ops    []raOp
	writes []raPick // posted writes into the words
	reads  []raPick // PCIe samples of the words
}

type raOp struct{ kind, a, b byte }

// raPick places a write or a read: at an instant of the reference run's
// op log (exactly, one picosecond later, or one horizon later), or at an
// absolute instant.
type raPick struct{ word, mode, idx, val byte }

func decodeRATrial(data []byte) raTrial {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	var tr raTrial
	tr.tick = []sim.Duration{0, 7 * sim.Nanosecond, 23 * sim.Nanosecond, 61 * sim.Nanosecond, 150 * sim.Nanosecond}[next()%5]
	if b := next(); b%4 == 0 {
		tr.launch = sim.Time(4*sim.Microsecond) + sim.Time(b)*sim.Time(60*sim.Nanosecond)
	}
	n := next()
	for i := 0; i < int(n%8); i++ {
		tr.writes = append(tr.writes, raPick{next(), next(), next(), next()})
	}
	for i := 0; i < int(n/8%8); i++ {
		tr.reads = append(tr.reads, raPick{next(), next(), next(), 0})
	}
	for len(data) >= 3 && len(tr.ops) < 48 {
		tr.ops = append(tr.ops, raOp{next(), next(), next()})
	}
	return tr
}

// raEntry is one kernel op's outcome.
type raEntry struct {
	kind byte
	v    uint64
	ok   bool
	at   sim.Time
}

type raResult struct {
	log      []raEntry
	mem      [8*raWords + 8]byte
	ctr      Counters
	executed uint64
	samples  []string
	handoffs uint64
}

// raWord is the kernel's word a selects; a set top bit shifts it by four
// bytes, so it overlaps two aligned words.
func raWord(dev memspace.Addr, a byte) memspace.Addr {
	return dev + memspace.Addr(8*(a%raWords)) + memspace.Addr(4*(a>>7))
}

// runRATrial runs tr with run-ahead on (off false) or off. at lists the
// instants writes and reads are placed against; the reference run passes
// nil and places none.
func runRATrial(tr raTrial, off bool, at []sim.Time) raResult {
	r := buildRig()
	defer r.e.Shutdown()
	r.g.ra.off = off
	nic := r.f.AddEndpoint("nic", pcie.EndpointConfig{
		EgressRate: 4e9, OneWay: 150 * sim.Nanosecond, ReadLatency: 100 * sim.Nanosecond,
	})
	hostEP := r.f.AddEndpoint("cpu", pcie.EndpointConfig{
		EgressRate: 8e9, OneWay: 100 * sim.Nanosecond,
	})
	dev := r.g.DevMem().Base + 0x100
	host := r.host.Base + 0x200
	var res raResult

	place := func(p raPick) (sim.Time, bool) {
		if len(at) == 0 {
			return 0, false
		}
		base := at[int(p.idx)%len(at)]
		switch p.mode % 4 {
		case 0:
			return base, true
		case 1:
			return base + 1, true
		case 2:
			return base.Add(450 * sim.Nanosecond), true
		}
		return sim.Time(p.idx) * sim.Time(97*sim.Nanosecond), true
	}
	for i, p := range tr.writes {
		land, ok := place(p)
		src := hostEP
		if i%2 == 1 {
			src = nic
		}
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(p.val)<<8|uint64(i))
		// Post so that the write lands at land when the source's egress
		// is idle.
		post := land - sim.Time(sim.BytesAt(len(b)+pcie.TLPHeader, 8e9)) - sim.Time(100*sim.Nanosecond+350*sim.Nanosecond)
		if src == nic {
			post = land - sim.Time(sim.BytesAt(len(b)+pcie.TLPHeader, 4e9)) - sim.Time(150*sim.Nanosecond+350*sim.Nanosecond)
		}
		if !ok || post < 0 {
			continue
		}
		addr := raWord(dev, p.word)
		r.e.At(post, func() { r.f.PostedWrite(src, addr, b[:]) })
	}
	for _, p := range tr.reads {
		when, ok := place(p)
		if !ok {
			continue
		}
		addr := raWord(dev, p.word)
		if p.mode&4 != 0 {
			r.e.At(when, func() {
				var b [8]byte
				done := r.f.ReadBulkReserve(hostEP, addr, b[:])
				res.samples = append(res.samples, fmt.Sprintf("bulk %#x %x @%d..%d", addr, b, r.e.Now(), done))
			})
			continue
		}
		r.e.SpawnAt(when, "reader", func(p *sim.Proc) {
			var b [8]byte
			r.f.Read(p, hostEP, addr, b[:])
			res.samples = append(res.samples, fmt.Sprintf("read %#x %x @%d", addr, b, p.Now()))
		})
	}
	if tr.tick > 0 {
		r.e.Spawn("tick", func(p *sim.Proc) {
			for p.Now() < sim.Time(raTick) {
				p.Sleep(tr.tick)
			}
		})
	}
	if tr.launch > 0 {
		r.e.At(tr.launch, func() {
			r.g.Launch(KernelConfig{Blocks: 1, Stream: r.g.NewStream()}, func(w *Warp) {
				w.Exec(3)
				w.StGlobalU64(raWord(dev, 3), 0xabc)
				w.Exec(2)
			})
		})
	}
	done := r.g.Launch(KernelConfig{Blocks: 1}, func(w *Warp) {
		for _, op := range tr.ops {
			e := raEntry{kind: op.kind % 13}
			addr := raWord(dev, op.a)
			switch e.kind {
			case 0, 1:
				w.Exec(1 + int(op.b%8))
			case 2, 3:
				e.v = w.LdGlobalU64(addr)
			case 4, 5:
				w.StGlobalU64(addr, uint64(op.b)<<8|uint64(len(res.log)))
			case 6:
				e.v = w.AtomicAddGlobalU64(addr, uint64(op.b))
			case 7:
				e.v = w.CASGlobalU64(addr, uint64(op.b), uint64(op.b)+1)
			case 8:
				e.v = w.LdSysU64(host + memspace.Addr(8*(op.b%4)))
			case 9:
				w.StSysU64(host+memspace.Addr(8*(op.b%4)), uint64(op.a))
			case 10:
				w.ThreadfenceSystem()
			case 11:
				e.v, e.ok = w.PollGlobalU64MaskedTimeout(addr, uint64(op.b), 0xff, sim.Duration(op.b%4+1)*500*sim.Nanosecond)
			case 12:
				w.SyncWarp()
			}
			e.at = w.Now()
			res.log = append(res.log, e)
		}
	})
	r.e.Run()
	if !done.Done() {
		panic("run-ahead trial: kernel did not finish")
	}
	if err := r.g.HostRead(dev, res.mem[:]); err != nil {
		panic(err)
	}
	res.ctr = r.g.Counters()
	res.executed = r.e.Executed()
	res.handoffs = r.e.Handoffs()
	return res
}

// checkRunAhead runs the oracle on one input.
func checkRunAhead(t *testing.T, data []byte) {
	tr := decodeRATrial(data)
	ref := runRATrial(tr, true, nil)
	var at []sim.Time
	for _, e := range ref.log {
		at = append(at, e.at)
	}
	off := runRATrial(tr, true, at)
	on := runRATrial(tr, false, at)
	if on.handoffs > off.handoffs {
		t.Errorf("run-ahead switched more: %d handoffs, %d without", on.handoffs, off.handoffs)
	}
	on.handoffs, off.handoffs = 0, 0
	if !reflect.DeepEqual(on, off) {
		for i := range min(len(on.log), len(off.log)) {
			if on.log[i] != off.log[i] {
				t.Fatalf("op %d: run-ahead %+v, without %+v", i, on.log[i], off.log[i])
			}
		}
		t.Fatalf("run-ahead diverged:\n on: %+v\noff: %+v", on, off)
	}
}

// raSeeds are inputs that open windows against a busy queue: chains of
// local ops with loads after stores to the same and to overlapping
// words, writes landing at op instants and one horizon later, and
// samples between a store's burst and its instant.
var raSeeds = [][]byte{
	// ticker 7 ns, no launch, 2 writes + 6 reads.
	{1, 1, 2 | 6<<3,
		0, 0, 3, 9, 1, 1, 5, 7, // writes: word 0 at op 3; word 1 at op 5 + 1 ps
		0, 4, 2, 1, 1, 4, 0, 0, 6, // reads: bulk at op 2, blocking at op 4, at op 6
		1, 5, 2, 1, 5, 4, 0, 5, 1, // bulk reads 1 ps after the ops before stores
		4, 0, 1, 2, 0, 0, 0, 3, 0, 4, 1, 2, 2, 1, 0, 5, 129, 3, 2, 0, 0, 2, 129, 0, 0, 2, 0, 3, 1, 0},
	// ticker 23 ns, a second kernel, 4 writes + 2 reads, sys ops between.
	{2, 4, 4 | 2<<3,
		0, 2, 1, 1, 1, 0, 3, 2, 2, 2, 5, 3, 3, 3, 7, 4,
		0, 5, 3, 1, 4, 8,
		0, 0, 2, 4, 1, 9, 2, 1, 0, 8, 0, 1, 4, 2, 77, 3, 2, 0, 9, 3, 2, 10, 0, 0, 5, 2, 4, 2, 2, 0, 11, 1, 77, 12, 0, 0, 2, 1, 0},
	// ticker 61 ns, long local chain with atomics and a bounded poll.
	{3, 1, 3 | 1<<3,
		2, 0, 7, 5, 0, 1, 9, 6, 1, 2, 11, 7,
		3, 0, 10,
		4, 0, 5, 4, 1, 6, 2, 0, 0, 2, 1, 0, 6, 0, 3, 7, 1, 8, 2, 0, 0, 1, 0, 7, 11, 2, 9, 3, 2, 0, 4, 130, 5, 3, 130, 0, 2, 2, 0, 12, 0, 0, 0, 0, 2, 4, 7, 1, 3, 7, 0},
}

func FuzzRunAhead(f *testing.F) {
	for _, s := range raSeeds {
		f.Add(s)
	}
	f.Fuzz(checkRunAhead)
}

// TestRunAheadOpensWindows checks that the seeds exercise run-ahead at
// all: with it on, the kernel switches less.
func TestRunAheadOpensWindows(t *testing.T) {
	for i, s := range raSeeds {
		tr := decodeRATrial(s)
		if on, off := runRATrial(tr, false, nil), runRATrial(tr, true, nil); on.handoffs >= off.handoffs {
			t.Errorf("seed %d: %d handoffs with run-ahead, %d without: no window opened", i, on.handoffs, off.handoffs)
		}
	}
}

// guardRig starts a kernel of local ops behind a queue kept busy by an
// event at every nanosecond, so the warp's first switching sleep opens a
// window.
func guardRig(t *testing.T, body func(w *Warp)) *rig {
	t.Helper()
	r := newRig(t)
	r.e.Spawn("tick", func(p *sim.Proc) {
		for p.Now() < sim.Time(10*sim.Microsecond) {
			p.Sleep(sim.Nanosecond)
		}
	})
	r.g.Launch(KernelConfig{Blocks: 1}, body)
	return r
}

// TestRunAheadGuardPanicsOnHostWrite: an event inside an open window
// writes device memory behind the warp's back, which the window's loads
// would miss; the guard must say so rather than let a number move.
func TestRunAheadGuardPanicsOnHostWrite(t *testing.T) {
	start := sim.Time(4 * sim.Microsecond) // after the launch overhead
	var r *rig
	r = guardRig(t, func(w *Warp) {
		base := w.GPU().DevMem().Base
		for i := 0; i < 20; i++ {
			w.StGlobalU64(base, w.LdGlobalU64(base)+1)
		}
	})
	r.e.At(start.Add(40*sim.Nanosecond), func() {
		if !r.g.ra.leads() {
			t.Error("no window leads the engine: the test would prove nothing")
		}
		r.g.HostWriteU64(r.g.DevMem().Base, 99)
	})
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "runs ahead of the engine clock") {
			t.Fatalf("want the run-ahead guard's panic, got %q", msg)
		}
	}()
	r.e.Run()
}

// TestRunAheadWriteAtOpenInstant: writes that land at the very instant a
// window opens are legal. One is an inbound write whose landing wakes
// the polling warp, which then opens a window at that instant; the
// other is a zero-time host write from an event queued at the instant a
// window opens, before the window has applied any effect ahead of it.
// Neither may trip the guard, and both runs must match run-ahead off.
func TestRunAheadWriteAtOpenInstant(t *testing.T) {
	run := func(off bool) (vals []uint64, ats []sim.Time, executed uint64) {
		r := newRig(t)
		r.g.ra.off = off
		base := r.g.DevMem().Base
		nic := r.f.AddEndpoint("nic", pcie.EndpointConfig{
			EgressRate: 4e9, OneWay: 150 * sim.Nanosecond, ReadLatency: 100 * sim.Nanosecond,
		})
		r.e.At(sim.Time(6*sim.Microsecond), func() {
			r.f.PostedWrite(nic, base, []byte{1, 0, 0, 0, 0, 0, 0, 0})
		})
		var hostAt sim.Time
		r.e.Spawn("tick", func(p *sim.Proc) {
			for p.Now() < sim.Time(12*sim.Microsecond) {
				p.Sleep(5 * sim.Nanosecond)
			}
		})
		done := r.g.Launch(KernelConfig{Blocks: 1}, func(w *Warp) {
			vals = append(vals, w.PollGlobalU64(base, 1))
			ats = append(ats, w.Now())
			for i := 0; i < 8; i++ {
				w.StGlobalU64(base+8, w.LdGlobalU64(base+8)+1)
			}
			ats = append(ats, w.Now())
			// Queue a host write at this very instant, then open a window
			// here with an Exec and sync at once.
			hostAt = w.Proc().Now()
			r.e.At(hostAt, func() {
				if err := r.g.HostWriteU64(base+16, 5); err != nil {
					t.Error(err)
				}
			})
			w.Exec(2)
			vals = append(vals, w.LdSysU64(r.host.Base))
			vals = append(vals, w.LdGlobalU64(base+8), w.LdGlobalU64(base+16))
			ats = append(ats, w.Now())
		})
		r.e.Run()
		if !done.Done() {
			t.Fatal("kernel did not finish")
		}
		return vals, ats, r.e.Executed()
	}
	v1, a1, e1 := run(false)
	v2, a2, e2 := run(true)
	if !reflect.DeepEqual(v1, v2) || !reflect.DeepEqual(a1, a2) || e1 != e2 {
		t.Fatalf("run-ahead %v %v %d events, without %v %v %d", v1, a1, e1, v2, a2, e2)
	}
	if v1[0] != 1 || v1[2] != 8 || v1[3] != 5 {
		t.Fatalf("values %v, want [1 _ 8 5]", v1)
	}
}
