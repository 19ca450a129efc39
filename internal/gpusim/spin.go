package gpusim

import (
	"encoding/binary"

	"putget/internal/memspace"
	"putget/internal/sim"
)

// Callback-form spins. A warp polling a completion word runs the loop
//
//	for {
//		Exec(pre)
//		v := Ld64(addr) // LdGlobalU64 or LdSysU64, by address
//		if until(v, arg) { return v }
//		Exec(post)
//		if bounded && now >= deadline { return v, timed out }
//	}
//
// and every sleep of it that another event precedes costs two coroutine
// switches. SpinU64 runs the same loop as a pooled sim.Step state
// machine. Each stage runs at the instant the warp's own sleep would
// have woken: it books the SM issue port, probes L2 and reads memory
// exactly as the warp ops do, and makes the same decision at its sleep.
// While the warp's own call runs the stages, a local stage's sleep may
// wake in place or run in a run-ahead window, as the ops' sleeps do;
// the first sleep that would switch instead schedules the next stage
// (or, at a window's end, hands it to the window's replay), the warp
// parks, and from then on the stages are engine callbacks that wake in
// place or schedule themselves. The stage that ends the loop resumes
// the warp. Every event keeps its (at, seq); only the switches go.

// SpinU64 runs the spin loop above until until(v, arg) holds and
// returns that v. until must be a package-level func (or another value
// built once), so a spin allocates nothing.
//
//putget:hot
func (w *Warp) SpinU64(addr memspace.Addr, pre, post int, until func(v, arg uint64) bool, arg uint64) uint64 {
	v, _ := w.spin(addr, pre, post, until, arg, false, 0)
	return v
}

// SpinU64Until is SpinU64 bounded by deadline: when the loop branch of
// a failed probe completes at or past deadline, it returns that probe's
// value and false.
//
//putget:hot
func (w *Warp) SpinU64Until(addr memspace.Addr, pre, post int, until func(v, arg uint64) bool, arg uint64, deadline sim.Time) (uint64, bool) {
	return w.spin(addr, pre, post, until, arg, true, deadline)
}

// spin runs the loop's stages in the warp's own call for as long as it
// can, and parks the warp when one must wait for the engine; the stage
// that ends the loop then resumes it.
//
//putget:hot
func (w *Warp) spin(addr memspace.Addr, pre, post int, until func(v, arg uint64) bool, arg uint64, bounded bool, deadline sim.Time) (uint64, bool) {
	s := w.g.newSpin()
	s.w, s.addr, s.sys = w, addr, !w.g.isDevice(addr)
	s.pre, s.post, s.until, s.arg = pre, post, until, arg
	s.bounded, s.deadline = bounded, deadline
	s.step()
	if !s.done {
		s.parked = true
		w.p.Await()
	}
	v, ok := s.v, s.ok
	w.g.freeSpin(s)
	return v, ok
}

// spinOp is one spin in flight. Ops are pooled per GPU: a warp runs at
// most one, so the pool holds at most one op per warp ever live.
type spinOp struct {
	sim.Step[*spinOp]
	w         *Warp
	addr      memspace.Addr
	pre, post int
	until     func(v, arg uint64) bool
	arg       uint64
	deadline  sim.Time
	v         uint64  // the last probe's value
	buf       [8]byte // a system-memory probe's landing buffer

	stage   spinStage
	sys     bool // addr is system memory: the probe crosses PCIe
	bounded bool
	ok      bool // until held
	done    bool // the loop has ended
	parked  bool // the warp awaits the stage that ends the loop
}

// spinStage names the point of the loop the next stage resumes at.
type spinStage uint8

const (
	spinHead    spinStage = iota // book the loop head's pre instructions
	spinLoad                     // count and book the load's issue
	spinProbe                    // the issue has completed: probe L2, or take a PCIe slot
	spinSlot                     // a PCIe slot is held: pay the LSU overhead
	spinRead                     // start the PCIe read
	spinArrived                  // the read's data has arrived
	spinTest                     // the load has completed: test its value
	spinBranch                   // the loop branch has issued: test the deadline
)

func (g *GPU) newSpin() *spinOp {
	if k := len(g.spins); k > 0 {
		s := g.spins[k-1]
		g.spins = g.spins[:k-1]
		return s
	}
	s := &spinOp{}
	s.Init(g.e, s)
	return s
}

func (g *GPU) freeSpin(s *spinOp) {
	*s = spinOp{Step: s.Step}
	g.spins = append(g.spins, s)
}

// step runs the loop's stages from s.stage on. Until the warp parks, it
// runs in the warp's call, and a local stage's sleep advances the warp
// as the op's sleep would (see Warp.advance); after that, a sleep wakes
// in place or schedules the next stage. A system-memory load syncs
// first, as every op that is not local does: when a window is open, it
// ends there and its replay runs the load's stage at its last wake. The
// stage that ends the loop resumes the warp when it is parked, and
// touches the op no more: the warp frees it.
//
//putget:hot
func (s *spinOp) step() {
	w := s.w
	g := w.g
	for {
		var t sim.Time
		local := true
		switch s.stage {
		case spinHead:
			s.stage = spinLoad
			if s.pre <= 0 {
				continue
			}
			t = w.book(s.pre)
		case spinLoad:
			if !s.sys {
				g.ctr.Globmem64Reads++
				w.countLd(8)
			} else if ra := &g.ra; ra.open {
				ra.open = false
				ra.then = s.Then((*spinOp).step)
				return
			} else {
				w.countLdSys(8)
				local = false
			}
			s.stage = spinProbe
			t = w.book(1)
		case spinProbe:
			if !s.sys {
				lat := w.l2Read(s.addr, 8)
				s.v = w.ldWord(s.addr)
				s.stage = spinTest
				t = w.now().Add(lat)
				break
			}
			s.stage = spinSlot
			if g.pcieSlots != nil && !g.pcieSlots.TryAcquire() {
				g.pcieSlots.AcquireFunc(s.Then((*spinOp).step))
				return
			}
			continue
		case spinSlot:
			s.stage, local = spinRead, false
			t = w.now().Add(g.cfg.PCIeOpOverhead)
		case spinRead:
			s.stage = spinArrived
			g.f.ReadFunc(g.ep, s.addr, s.buf[:], s.Then((*spinOp).step))
			return
		case spinArrived:
			s.v = binary.LittleEndian.Uint64(s.buf[:])
			w.releasePCIe()
			s.stage = spinTest
			continue
		case spinTest:
			if s.until(s.v, s.arg) {
				s.end(true)
				return
			}
			s.stage = spinBranch
			if s.post <= 0 {
				continue
			}
			t = w.book(s.post)
		case spinBranch:
			if s.bounded && w.now() >= s.deadline {
				s.end(false)
				return
			}
			s.stage = spinHead
			continue
		}
		if local && !s.parked {
			switch w.advance(t) {
			case runsOn:
				continue
			case windowEnds:
				g.ra.then = s.Then((*spinOp).step)
				return
			}
		} else if g.e.WakeInPlace(t) {
			continue
		}
		s.At(t, (*spinOp).step)
		return
	}
}

// end ends the loop with verdict ok and resumes the warp if it parked.
//
//putget:hot
func (s *spinOp) end(ok bool) {
	s.ok, s.done = ok, true
	if s.parked {
		s.w.p.WakeFunc()()
	}
}
