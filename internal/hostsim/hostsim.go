// Package hostsim models the host CPU side of the testbed: a fast
// single-thread processor with cache-speed access to its own RAM, MMIO
// over the PCIe fabric, and helper loops for the polling and host-assisted
// protocols the paper measures.
//
// The model is intentionally coarse — the paper's point is precisely that
// CPU-side work-request generation and notification polling are cheap, so
// only a handful of cost parameters matter.
package hostsim

import (
	"encoding/binary"
	"fmt"

	"putget/internal/memspace"
	"putget/internal/pcie"
	"putget/internal/sim"
)

// Config fixes the CPU cost model.
type Config struct {
	Name string
	// MemLatency is one cached host-RAM access (also the polling cadence).
	MemLatency sim.Duration
	// MMIOWriteCost is the core-side cost to retire one posted MMIO store
	// (the fabric adds serialization and flight time).
	MMIOWriteCost sim.Duration
	// WRGenCost is the host-side cost to build one work request.
	WRGenCost sim.Duration
	// HostRAM is the region served without crossing PCIe.
	HostRAM memspace.Region
	// PCIe configures the CPU's fabric port.
	PCIe pcie.EndpointConfig
}

// CPU is one host processor attached to a node fabric. Its methods charge
// virtual time on the calling process, which plays the role of a pinned
// host thread.
type CPU struct {
	cfg Config
	e   *sim.Engine
	f   *pcie.Fabric
	ep  *pcie.Endpoint

	// inboundSig/inboundEpoch let PollU64 park between DMA writes into
	// host RAM instead of simulating every cache-speed probe.
	inboundSig   *sim.Signal
	inboundEpoch uint64

	// spins are the pending SpinU64s on host RAM, which the inbound-write
	// hook keeps current; spare recycles finished ones.
	spins, spare []*spinner
}

// New attaches a CPU endpoint to the fabric.
func New(e *sim.Engine, f *pcie.Fabric, cfg Config) *CPU {
	c := &CPU{cfg: cfg, e: e, f: f}
	c.ep = f.AddEndpoint(cfg.Name, cfg.PCIe)
	c.inboundSig = sim.NewSignal(e)
	return c
}

// Endpoint returns the CPU's fabric port.
func (c *CPU) Endpoint() *pcie.Endpoint { return c.ep }

// Name returns the configured name.
func (c *CPU) Name() string { return c.cfg.Name }

func (c *CPU) isLocal(addr memspace.Addr) bool { return c.cfg.HostRAM.Contains(addr) }

// Compute charges d of pure CPU time.
func (c *CPU) Compute(p *sim.Proc, d sim.Duration) { p.Sleep(d) }

// GenWR charges the host-side cost of building one work request.
func (c *CPU) GenWR(p *sim.Proc) { p.Sleep(c.cfg.WRGenCost) }

// ReadU64 loads a 64-bit word: cache-speed from host RAM, a full PCIe
// round trip otherwise.
//
//putget:hot
func (c *CPU) ReadU64(p *sim.Proc, addr memspace.Addr) uint64 {
	if c.isLocal(addr) {
		p.Sleep(c.cfg.MemLatency)
		return c.peekU64(addr)
	}
	var b [8]byte
	c.f.Read(p, c.ep, addr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// peekU64 is the functional (zero-time) load of a host-RAM word.
func (c *CPU) peekU64(addr memspace.Addr) uint64 {
	v, err := c.f.Space().ReadU64(addr)
	if err != nil {
		panic(fmt.Sprintf("hostsim: %s: %v", c.cfg.Name, err))
	}
	return v
}

// Read loads len(b) bytes.
func (c *CPU) Read(p *sim.Proc, addr memspace.Addr, b []byte) {
	if c.isLocal(addr) {
		p.Sleep(c.cfg.MemLatency)
		if err := c.f.Space().Read(addr, b); err != nil {
			panic(fmt.Sprintf("hostsim: %s: %v", c.cfg.Name, err))
		}
		return
	}
	c.f.Read(p, c.ep, addr, b)
}

// WriteU64 stores a 64-bit word: host RAM at cache speed, posted MMIO
// otherwise.
//
//putget:hot
func (c *CPU) WriteU64(p *sim.Proc, addr memspace.Addr, v uint64) {
	if c.isLocal(addr) {
		p.Sleep(c.cfg.MemLatency)
		if err := c.f.Space().WriteU64(addr, v); err != nil {
			panic(fmt.Sprintf("hostsim: %s: %v", c.cfg.Name, err))
		}
		return
	}
	p.Sleep(c.cfg.MMIOWriteCost)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	c.f.PostedWrite(c.ep, addr, b[:])
}

// Write stores b at addr.
func (c *CPU) Write(p *sim.Proc, addr memspace.Addr, b []byte) {
	if c.isLocal(addr) {
		p.Sleep(c.cfg.MemLatency)
		if err := c.f.Space().Write(addr, b); err != nil {
			panic(fmt.Sprintf("hostsim: %s: %v", c.cfg.Name, err))
		}
		return
	}
	c.MMIOWriteBurst(p, addr, b)
}

// MMIOWriteBurst posts data as one write-combined MMIO store burst (the
// x86 WC path hosts use to hand descriptors to a BAR in few TLPs).
func (c *CPU) MMIOWriteBurst(p *sim.Proc, addr memspace.Addr, data []byte) {
	p.Sleep(c.cfg.MMIOWriteCost)
	c.f.PostedWrite(c.ep, addr, data)
}

// NotifyInboundWrite is the host-memory endpoint's inbound-write hook
// (pcie.Endpoint.OnInboundWrite): n bytes at addr, posted at posted, have
// just landed in host RAM. It brings every pending spin that watches
// those bytes up to date and wakes PollU64 pollers.
func (c *CPU) NotifyInboundWrite(addr memspace.Addr, n int, posted sim.Time) {
	for _, s := range c.spins {
		if addr < s.addr+8 && s.addr < addr+memspace.Addr(n) {
			s.land(c.e.Now(), posted, c.peekU64(s.addr))
		}
	}
	c.inboundEpoch++
	c.inboundSig.Broadcast()
}

// PollU64 re-reads addr until pred is satisfied, returning the value that
// satisfied it. Polling host RAM runs at cache cadence but parks between
// inbound DMA writes (the only way the value can change under the single-
// writer protocols this repository models); polling across PCIe pays a
// full round trip per probe.
func (c *CPU) PollU64(p *sim.Proc, addr memspace.Addr, pred func(uint64) bool) uint64 {
	var span sim.SpanID
	if c.e.Observing() {
		span = c.e.SpanOpen(c.cfg.Name, "poll.mem")
	}
	local := c.isLocal(addr)
	for {
		epoch := c.inboundEpoch
		v := c.ReadU64(p, addr)
		if pred(v) {
			c.e.SpanClose(span)
			return v
		}
		if !local || c.inboundEpoch != epoch {
			continue
		}
		c.inboundSig.Wait(p)
	}
}

// WaitFlag polls addr until it holds exactly want, then returns.
func (c *CPU) WaitFlag(p *sim.Proc, addr memspace.Addr, want uint64) {
	c.PollU64(p, addr, func(v uint64) bool { return v == want })
}

// SpinU64 re-reads the word at addr until pred holds and returns the
// value that satisfied it: the CPU spin loop of the hostControlled and
// assisted modes. Probes fall on the grid entry + k*MemLatency (k >= 1),
// exactly as a loop of ReadU64 calls would place them, and the result
// and return instant are that loop's. pred must be a pure function of
// the word.
//
// On host RAM the probes are elided: the word changes only by inbound
// DMA writes, so the spinner parks while none is pending and lets the
// inbound-write hook decide which probe first sees a satisfying value
// (spinner.land). Off host RAM every probe is an explicit PCIe read.
//
//putget:hot
func (c *CPU) SpinU64(p *sim.Proc, addr memspace.Addr, pred func(uint64) bool) uint64 {
	v, _ := c.spin(p, addr, pred, false, 0)
	return v
}

// SpinU64Until is SpinU64 bounded by deadline: when the first probe at or
// past deadline fails, it returns that probe's value and false.
//
//putget:hot
func (c *CPU) SpinU64Until(p *sim.Proc, addr memspace.Addr, pred func(uint64) bool, deadline sim.Time) (uint64, bool) {
	return c.spin(p, addr, pred, true, deadline)
}

// spin is SpinU64 and SpinU64Until. Time only ever advances to the
// instant of a probe the spin must evaluate: the earliest satisfying one
// (s.cand) or, when bounded, the last one. A probe at t sees the writes
// that land before t, and those landing at t that were posted more than
// one MemLatency earlier (their delivery event sorts before the probe's
// wakeup, which the previous probe schedules one MemLatency ahead). So
// the spin resumes at t only through a wakeup scheduled no earlier than
// t-MemLatency: by then every write the probe sees has been through the
// hook. A write the probe misses may have been through it too (posted
// exactly one MemLatency ahead, before that wakeup was scheduled), so
// the value of a failed last probe comes from valueAt, not from memory.
//
//putget:hot
func (c *CPU) spin(p *sim.Proc, addr memspace.Addr, pred func(uint64) bool, bounded bool, deadline sim.Time) (uint64, bool) {
	lat := c.cfg.MemLatency
	if !c.isLocal(addr) || lat <= 0 {
		for {
			v := c.ReadU64(p, addr)
			if pred(v) {
				return v, true
			}
			if bounded && p.Now() >= deadline {
				return v, false
			}
		}
	}
	s := c.startSpin(p.Now(), addr, pred)
	var last sim.Time
	if bounded {
		last = s.probeAt(deadline)
	}
	for {
		target := last
		if s.found && (!bounded || s.cand <= last) {
			target = s.cand
		} else if !bounded {
			s.wake.Wait(p)
			continue
		}
		if now := p.Now(); target.Add(-lat) > now {
			if s.wake.WaitUntil(p, target.Add(-lat)) {
				continue // the verdict changed: re-plan
			}
			p.SleepUntil(target)
		} else if target > now {
			p.SleepUntil(target)
		}
		if s.found && s.cand == target {
			v := s.candV
			c.endSpin(s)
			return v, true
		}
		if bounded && target == last {
			v := s.valueAt(target)
			c.endSpin(s)
			return v, false
		}
	}
}

// spinner is the state of one pending spin on host RAM. The inbound-write
// hook advances it; the spinning process only sleeps to the probes it
// names.
type spinner struct {
	addr memspace.Addr
	pred func(uint64) bool
	t0   sim.Time     // spin entry; probes fall at t0 + k*lat, k >= 1
	lat  sim.Duration // the CPU's MemLatency
	wake *sim.Signal  // broadcast when found changes

	// found reports whether the probe at cand is the earliest one known
	// to see a satisfying value, candV. Writes can still move it until
	// time reaches cand.
	found bool
	cand  sim.Time
	candV uint64

	// cur is the word as probes from curAt on see it; prev is what the
	// probes before curAt see (back to the write before).
	cur, prev uint64
	curAt     sim.Time
}

// probeAt returns the first probe instant at or after t.
func (s *spinner) probeAt(t sim.Time) sim.Time {
	k := (t.Sub(s.t0) + s.lat - 1) / s.lat
	if k < 1 {
		k = 1
	}
	return s.t0.Add(k * s.lat)
}

// valueAt returns the word a probe at t reads; t is a probe instant no
// later than the current time.
func (s *spinner) valueAt(t sim.Time) uint64 {
	if t >= s.curAt {
		return s.cur
	}
	return s.prev
}

// land records that the watched word became v through a write landing at
// at and posted at posted, and moves the verdict if that changes which
// probe first sees a satisfying value. Writes land in (at, seq) order, so
// the first probe each one reaches never decreases.
func (s *spinner) land(at, posted sim.Time, v uint64) {
	g := s.probeAt(at)
	if g == at && posted >= at.Add(-s.lat) {
		// The probe at this instant was scheduled no later than the
		// write, so it ran first.
		g = g.Add(s.lat)
	}
	if g > s.curAt {
		s.prev, s.curAt = s.cur, g
	}
	s.cur = v
	if s.found && s.cand < g {
		return // an earlier probe already sees a satisfying value
	}
	// Here no probe before g sees a satisfying value, and if one was
	// found it is the probe at g, which now sees v instead.
	found := s.pred(v)
	changed := found != s.found
	s.found, s.cand, s.candV = found, g, v
	if changed {
		s.wake.Broadcast()
	}
}

// startSpin registers a spinner for a spin entered at t0.
func (c *CPU) startSpin(t0 sim.Time, addr memspace.Addr, pred func(uint64) bool) *spinner {
	var s *spinner
	if k := len(c.spare); k > 0 {
		s = c.spare[k-1]
		c.spare = c.spare[:k-1]
	} else {
		s = &spinner{wake: sim.NewSignal(c.e)}
	}
	v := c.peekU64(addr)
	first := t0.Add(c.cfg.MemLatency)
	*s = spinner{addr: addr, pred: pred, t0: t0, lat: c.cfg.MemLatency, wake: s.wake,
		found: pred(v), cand: first, candV: v, cur: v, prev: v, curAt: t0}
	c.spins = append(c.spins, s)
	return s
}

// endSpin unregisters s and keeps it for reuse.
func (c *CPU) endSpin(s *spinner) {
	for i, x := range c.spins {
		if x == s {
			last := len(c.spins) - 1
			c.spins[i] = c.spins[last]
			c.spins[last] = nil
			c.spins = c.spins[:last]
			break
		}
	}
	s.pred = nil
	c.spare = append(c.spare, s)
}
