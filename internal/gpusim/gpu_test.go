package gpusim

import (
	"testing"

	"putget/internal/memspace"
	"putget/internal/pcie"
	"putget/internal/sim"
)

type rig struct {
	e    *sim.Engine
	f    *pcie.Fabric
	g    *GPU
	host memspace.Region
}

func testConfig() Config {
	return Config{
		Name:           "gpu0",
		SMs:            4,
		IssueCost:      8 * sim.Nanosecond,
		L2HitLatency:   80 * sim.Nanosecond,
		DevMemLatency:  250 * sim.Nanosecond,
		PCIeOpOverhead: 100 * sim.Nanosecond,
		LaunchOverhead: 4 * sim.Microsecond,
		L2Bytes:        1 << 20,
		L2Assoc:        16,
		L2Sector:       32,
		DevMemBase:     0x1000_0000,
		DevMemSize:     16 << 20,
		PCIe: pcie.EndpointConfig{
			EgressRate:  8e9,
			OneWay:      350 * sim.Nanosecond,
			ReadLatency: 600 * sim.Nanosecond,
			ReadRate: func(total int) float64 {
				if total > 1<<20 {
					return 0.35e9
				}
				return 1.0e9
			},
		},
	}
}

func newRig(t *testing.T) *rig {
	t.Helper()
	return buildRig()
}

func buildRig() *rig {
	e := sim.NewEngine()
	space := memspace.NewSpace()
	host := space.MustMap(0x0, memspace.NewRAM("host", 4<<20))
	f := pcie.NewFabric(e, space)
	hostEP := f.AddEndpoint("hostmem", pcie.EndpointConfig{
		EgressRate: 8e9, OneWay: 100 * sim.Nanosecond, ReadLatency: 150 * sim.Nanosecond,
	})
	f.ClaimRAM(hostEP, host)
	g := New(e, f, testConfig())
	return &rig{e: e, f: f, g: g, host: host}
}

func (r *rig) run(t *testing.T, blocks, threads int, body func(w *Warp)) {
	t.Helper()
	done := r.g.Launch(KernelConfig{Blocks: blocks, ThreadsPerBlock: threads}, body)
	r.e.Run()
	if !done.Done() {
		t.Fatal("kernel did not complete")
	}
}

func TestGlobalMemoryRoundTrip(t *testing.T) {
	r := newRig(t)
	base := r.g.DevMem().Base
	var got uint64
	r.run(t, 1, 1, func(w *Warp) {
		w.StGlobalU64(base+64, 0xfeedface)
		got = w.LdGlobalU64(base + 64)
	})
	if got != 0xfeedface {
		t.Fatalf("got %#x", got)
	}
	c := r.g.Counters()
	if c.Globmem64Writes != 1 || c.Globmem64Reads != 1 {
		t.Fatalf("globmem counters = %+v", c)
	}
	if c.SysmemReads32B != 0 || c.SysmemWrites32B != 0 {
		t.Fatalf("unexpected sysmem traffic: %+v", c)
	}
}

// TestGlobalU64DoesNotAllocate pins a warp's word accesses at zero
// allocations per op, once warm: device-memory loads, stores and atomics
// go through the space's in-place word access, system-memory loads read
// into the fabric's pooled read op, and system-memory stores copy their
// bytes into a pooled posted-write op, so a stack array stays on the
// stack. HostWriteU64 rides along. Each op runs twice: alone, and behind
// a queue kept busy by a ticking process, where the local ops open
// run-ahead windows (their replay and store buffer reuse the GPU's
// buffers).
func TestGlobalU64DoesNotAllocate(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   func(w *Warp, dev, host memspace.Addr, v uint64)
	}{
		{"StGlobalU64", func(w *Warp, dev, _ memspace.Addr, v uint64) { w.StGlobalU64(dev, v) }},
		{"LdGlobalU64", func(w *Warp, dev, _ memspace.Addr, _ uint64) { w.LdGlobalU64(dev) }},
		{"AtomicAddGlobalU64", func(w *Warp, dev, _ memspace.Addr, v uint64) { w.AtomicAddGlobalU64(dev, v) }},
		{"CASGlobalU64", func(w *Warp, dev, _ memspace.Addr, v uint64) { w.CASGlobalU64(dev, v, v+1) }},
		{"StSysU64", func(w *Warp, _, host memspace.Addr, v uint64) { w.StSysU64(host, v) }},
		{"StSysU32", func(w *Warp, _, host memspace.Addr, v uint64) { w.StSysU32(host, uint32(v)) }},
		{"LdSysU64", func(w *Warp, _, host memspace.Addr, _ uint64) { w.LdSysU64(host) }},
		{"LdSysU32", func(w *Warp, _, host memspace.Addr, _ uint64) { w.LdSysU32(host) }},
		{"StSysCoalesced", func(w *Warp, _, host memspace.Addr, v uint64) {
			var b [8]byte
			b[0] = byte(v)
			w.StSysCoalesced(host, b[:])
		}},
		{"LdSysBytes", func(w *Warp, _, host memspace.Addr, _ uint64) {
			var b [24]byte
			w.LdSysBytes(host, b[:])
		}},
		{"HostWriteU64", func(w *Warp, dev, _ memspace.Addr, v uint64) {
			w.GPU().HostWriteU64(dev, v)
			w.Exec(1)
		}},
	} {
		for _, busy := range []bool{false, true} {
			r := newRig(t)
			base := r.g.DevMem().Base
			var ops uint64
			r.g.Launch(KernelConfig{Blocks: 1, ThreadsPerBlock: 1}, func(w *Warp) {
				for {
					tc.op(w, base+64, r.host.Base+64, ops)
					ops++
				}
			})
			if busy {
				r.e.Spawn("tick", func(p *sim.Proc) {
					for {
						p.Sleep(3 * sim.Nanosecond)
					}
				})
			}
			// step runs the engine until the warp has done one more op.
			step := func() {
				for want := ops + 1; ops < want; {
					r.e.RunUntil(r.e.Now() + sim.Time(100*sim.Nanosecond))
				}
			}
			step()
			if got := testing.AllocsPerRun(1000, step); got != 0 {
				t.Errorf("%s (busy %v): %v allocs/op, want 0", tc.name, busy, got)
			}
			r.e.Shutdown()
		}
	}
}

// TestBusyQueueOpensWindows checks that the busy runs above really run
// ahead: the local ops switch less than with run-ahead off.
func TestBusyQueueOpensWindows(t *testing.T) {
	handoffs := func(off bool) uint64 {
		r := newRig(t)
		defer r.e.Shutdown()
		r.g.ra.off = off
		base := r.g.DevMem().Base
		r.g.Launch(KernelConfig{Blocks: 1, ThreadsPerBlock: 1}, func(w *Warp) {
			for i := uint64(0); ; i++ {
				w.StGlobalU64(base+64, w.LdGlobalU64(base+64)+i)
			}
		})
		r.e.Spawn("tick", func(p *sim.Proc) {
			for {
				p.Sleep(3 * sim.Nanosecond)
			}
		})
		r.e.RunUntil(sim.Time(24 * sim.Microsecond))
		return r.e.Handoffs()
	}
	// The ticker switches about as often either way; the warp's ~620
	// sleeps switch in well under a tenth of them with run-ahead.
	if on, off := handoffs(false), handoffs(true); 3*on > 2*off {
		t.Errorf("%d handoffs with run-ahead, %d without: want at most two thirds", on, off)
	}
}

func TestL2HitMissSequence(t *testing.T) {
	r := newRig(t)
	base := r.g.DevMem().Base
	r.run(t, 1, 1, func(w *Warp) {
		w.StGlobalU64(base, 1) // allocates the sector
		for i := 0; i < 10; i++ {
			w.LdGlobalU64(base)
		}
	})
	c := r.g.Counters()
	if c.L2ReadHits != 10 || c.L2ReadMisses != 0 {
		t.Fatalf("hits=%d misses=%d, want 10/0", c.L2ReadHits, c.L2ReadMisses)
	}
}

func TestColdLoadMissesThenHits(t *testing.T) {
	r := newRig(t)
	base := r.g.DevMem().Base
	r.run(t, 1, 1, func(w *Warp) {
		w.LdGlobalU64(base + 4096) // cold: miss
		w.LdGlobalU64(base + 4096) // hit
	})
	c := r.g.Counters()
	if c.L2ReadMisses != 1 || c.L2ReadHits != 1 {
		t.Fatalf("misses=%d hits=%d, want 1/1", c.L2ReadMisses, c.L2ReadHits)
	}
}

func TestL2HitFasterThanMiss(t *testing.T) {
	r := newRig(t)
	base := r.g.DevMem().Base
	var missTime, hitTime sim.Duration
	r.run(t, 1, 1, func(w *Warp) {
		s := w.Now()
		w.LdGlobalU64(base + 8192)
		missTime = w.Now().Sub(s)
		s = w.Now()
		w.LdGlobalU64(base + 8192)
		hitTime = w.Now().Sub(s)
	})
	if hitTime >= missTime {
		t.Fatalf("hit %v not faster than miss %v", hitTime, missTime)
	}
	if missTime < 300*sim.Nanosecond {
		t.Fatalf("miss too fast: %v", missTime)
	}
}

func TestInboundDMAInvalidatesL2(t *testing.T) {
	r := newRig(t)
	base := r.g.DevMem().Base
	flagAddr := base + 1024
	var observed uint64
	var polls int
	nicEP := r.f.AddEndpoint("nic", pcie.EndpointConfig{
		EgressRate: 4e9, OneWay: 150 * sim.Nanosecond, ReadLatency: 100 * sim.Nanosecond,
	})
	// NIC writes the flag after 20us.
	r.e.SpawnAt(20_000_000, "nic-dma", func(p *sim.Proc) {
		r.f.PostedWrite(nicEP, flagAddr, []byte{1, 0, 0, 0, 0, 0, 0, 0})
	})
	r.run(t, 1, 1, func(w *Warp) {
		for {
			polls++
			if v := w.LdGlobalU64(flagAddr); v != 0 {
				observed = v
				return
			}
		}
	})
	if observed != 1 {
		t.Fatalf("poll never observed DMA write")
	}
	c := r.g.Counters()
	// All but the first and last polls must hit in L2.
	if c.L2ReadMisses != 2 {
		t.Fatalf("misses = %d, want exactly 2 (cold + post-invalidate)", c.L2ReadMisses)
	}
	if int(c.L2ReadHits) != polls-2 {
		t.Fatalf("hits = %d, polls = %d", c.L2ReadHits, polls)
	}
}

func TestSysmemAccessCountersAndLatency(t *testing.T) {
	r := newRig(t)
	if err := r.f.Space().WriteU64(0x100, 42); err != nil {
		t.Fatal(err)
	}
	var v uint64
	var rdLat sim.Duration
	r.run(t, 1, 1, func(w *Warp) {
		s := w.Now()
		v = w.LdSysU64(0x100)
		rdLat = w.Now().Sub(s)
		w.StSysU64(0x108, 77)
	})
	if v != 42 {
		t.Fatalf("sysmem read = %d", v)
	}
	got, _ := r.f.Space().ReadU64(0x108)
	if got != 77 {
		t.Fatalf("sysmem write landed %d", got)
	}
	c := r.g.Counters()
	if c.SysmemReads32B != 1 || c.SysmemWrites32B != 1 {
		t.Fatalf("sysmem counters %+v", c)
	}
	if c.L2ReadHits != 0 {
		t.Fatalf("sysmem read must not hit L2")
	}
	// GPU→sysmem read ≈ 1.1-1.4us in this configuration.
	if rdLat < sim.Microsecond || rdLat > 1600*sim.Nanosecond {
		t.Fatalf("sysmem read latency = %v", rdLat)
	}
}

func TestPostedStoreDoesNotStallWarp(t *testing.T) {
	r := newRig(t)
	var stTime sim.Duration
	r.run(t, 1, 1, func(w *Warp) {
		s := w.Now()
		w.StSysU64(0x200, 5)
		stTime = w.Now().Sub(s)
	})
	// Posted: issue + LSU overhead only, far less than a round trip.
	if stTime > 300*sim.Nanosecond {
		t.Fatalf("posted store stalled %v", stTime)
	}
}

func TestThreadfenceSystemDrains(t *testing.T) {
	r := newRig(t)
	var fenceDone sim.Time
	r.run(t, 1, 1, func(w *Warp) {
		w.StSysU64(0x300, 1)
		w.ThreadfenceSystem()
		fenceDone = w.Now()
		got, _ := r.f.Space().ReadU64(0x300)
		if got != 1 {
			t.Errorf("store not visible after fence")
		}
	})
	if fenceDone == 0 {
		t.Fatal("kernel did not run")
	}
}

func TestInstructionAccounting(t *testing.T) {
	r := newRig(t)
	r.run(t, 1, 1, func(w *Warp) {
		w.Exec(100)
	})
	if c := r.g.Counters(); c.InstrExecuted != 100 {
		t.Fatalf("instr = %d, want 100", c.InstrExecuted)
	}
	r.g.ResetCounters()
	if c := r.g.Counters(); c.InstrExecuted != 0 {
		t.Fatalf("reset failed: %+v", c)
	}
}

func TestIssueCostScalesWithInstructions(t *testing.T) {
	r := newRig(t)
	var t100, t1000 sim.Duration
	r.run(t, 1, 1, func(w *Warp) {
		s := w.Now()
		w.Exec(100)
		t100 = w.Now().Sub(s)
		s = w.Now()
		w.Exec(1000)
		t1000 = w.Now().Sub(s)
	})
	if t1000 != 10*t100 {
		t.Fatalf("issue time not linear: %v vs %v", t100, t1000)
	}
}

func TestBlocksRunConcurrently(t *testing.T) {
	r := newRig(t)
	var finishes []sim.Time
	r.run(t, 4, 1, func(w *Warp) {
		w.Exec(1000) // 8us of issue on 4 distinct SMs
		finishes = append(finishes, w.Now())
	})
	for i := 1; i < len(finishes); i++ {
		if finishes[i] != finishes[0] {
			t.Fatalf("blocks on distinct SMs did not run concurrently: %v", finishes)
		}
	}
}

func TestCoResidentWarpsSerializeIssue(t *testing.T) {
	r := newRig(t)
	// 64 blocks on 4 SMs: 16 warps per SM exceed the issue share (8),
	// so issue-port contention must slow them down.
	var finishes []sim.Time
	r.run(t, 64, 1, func(w *Warp) {
		w.Exec(1000)
		finishes = append(finishes, w.Now())
	})
	var max, min sim.Time
	min = finishes[0]
	for _, f := range finishes {
		if f > max {
			max = f
		}
		if f < min {
			min = f
		}
	}
	if max < 2*min-sim.Time(testConfig().LaunchOverhead) {
		t.Fatalf("co-resident warps did not serialize: min=%v max=%v", min, max)
	}
}

func TestStreamsSerializeKernels(t *testing.T) {
	r := newRig(t)
	s := r.g.NewStream()
	var k1End, k2Start sim.Time
	d1 := r.g.Launch(KernelConfig{Blocks: 1, Stream: s}, func(w *Warp) {
		w.Exec(500)
		k1End = w.Now()
	})
	d2 := r.g.Launch(KernelConfig{Blocks: 1, Stream: s}, func(w *Warp) {
		k2Start = w.Now()
		w.Exec(1)
	})
	r.e.Run()
	if k2Start < k1End {
		t.Fatalf("second kernel started %v before first ended %v", k2Start, k1End)
	}
	// The stream's events are pinned: its stages keep their instants (in
	// ps) and the engine runs exactly as many events.
	got := [...]sim.Time{k1End, d1.At(), k2Start, d2.At()}
	if want := [...]sim.Time{8_000_000, 8_000_000, 12_000_000, 12_008_000}; got != want {
		t.Errorf("kernel instants %v, want %v", got, want)
	}
	if got, want := r.e.Executed(), uint64(10); got != want {
		t.Errorf("%d events executed, want %d", got, want)
	}
}

func TestDifferentStreamsOverlap(t *testing.T) {
	r := newRig(t)
	s1, s2 := r.g.NewStream(), r.g.NewStream()
	var e1, s2start sim.Time
	r.g.Launch(KernelConfig{Blocks: 1, Stream: s1}, func(w *Warp) {
		w.Exec(10000)
		e1 = w.Now()
	})
	r.g.Launch(KernelConfig{Blocks: 1, Stream: s2}, func(w *Warp) {
		s2start = w.Now()
		w.Exec(1)
	})
	r.e.Run()
	if s2start >= e1 {
		t.Fatalf("independent streams serialized: k2 at %v, k1 end %v", s2start, e1)
	}
}

func TestLaunchOverheadCharged(t *testing.T) {
	r := newRig(t)
	var started sim.Time
	r.run(t, 1, 1, func(w *Warp) {
		started = w.Now()
	})
	if started != sim.Time(testConfig().LaunchOverhead) {
		t.Fatalf("kernel started at %v, want %v", started, testConfig().LaunchOverhead)
	}
}

func TestCoalescedStoreCountsSectors(t *testing.T) {
	r := newRig(t)
	data := make([]byte, 64) // 64B = 2 sectors
	r.run(t, 1, 8, func(w *Warp) {
		w.StSysCoalesced(0x400, data)
	})
	c := r.g.Counters()
	if c.SysmemWrites32B != 2 {
		t.Fatalf("coalesced 64B store = %d transactions, want 2", c.SysmemWrites32B)
	}
	if c.InstrExecuted != 1 {
		t.Fatalf("coalesced store = %d instr, want 1", c.InstrExecuted)
	}
}

func TestFillGlobalWritesPayload(t *testing.T) {
	r := newRig(t)
	base := r.g.DevMem().Base
	payload := make([]byte, 1000)
	for i := range payload {
		payload[i] = byte(i)
	}
	r.run(t, 1, 32, func(w *Warp) {
		w.FillGlobal(base+0x2000, payload)
	})
	got := make([]byte, 1000)
	if err := r.g.HostRead(base+0x2000, got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != byte(i) {
			t.Fatalf("payload corrupt at %d", i)
		}
	}
}

func TestAddressGuards(t *testing.T) {
	r := newRig(t)
	panics := 0
	r.run(t, 1, 1, func(w *Warp) {
		for _, fn := range []func(){
			func() { w.LdGlobalU64(0x100) },             // host addr via global op
			func() { w.LdSysU64(r.g.DevMem().Base) },    // device addr via sys op
			func() { w.StSysU64(r.g.DevMem().Base, 1) }, // device addr via sys store
			func() { w.StGlobalU64(0x100, 1) },          // host addr via global store
		} {
			func() {
				defer func() {
					if recover() != nil {
						panics++
					}
				}()
				fn()
			}()
		}
	})
	if panics != 4 {
		t.Fatalf("guards caught %d of 4 misroutes", panics)
	}
}

func TestHostWriteInvalidatesL2(t *testing.T) {
	r := newRig(t)
	base := r.g.DevMem().Base
	var first, second uint64
	done := r.g.Launch(KernelConfig{Blocks: 1}, func(w *Warp) {
		first = w.LdGlobalU64(base) // caches the sector (value 0)
		w.Proc().Sleep(10 * sim.Microsecond)
		second = w.LdGlobalU64(base)
	})
	r.e.RunUntil(8 * 1000 * 1000) // 8us: kernel did the first load
	if err := r.g.HostWriteU64(base, 99); err != nil {
		t.Fatal(err)
	}
	r.e.Run()
	if !done.Done() {
		t.Fatal("kernel stuck")
	}
	if first != 0 || second != 99 {
		t.Fatalf("first=%d second=%d, want 0 then 99", first, second)
	}
}

func TestOversizeBlockRejected(t *testing.T) {
	r := newRig(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for >1024 threads per block")
		}
	}()
	r.g.Launch(KernelConfig{Blocks: 1, ThreadsPerBlock: 2048}, func(w *Warp) {})
}

func TestPollGlobalU64FastPathAccounting(t *testing.T) {
	// The parked fast path must observe the write promptly and account
	// the probes it skipped.
	r := newRig(t)
	base := r.g.DevMem().Base
	flag := base + 2048
	nicEP := r.f.AddEndpoint("nic2", pcie.EndpointConfig{
		EgressRate: 4e9, OneWay: 150 * sim.Nanosecond, ReadLatency: 100 * sim.Nanosecond,
	})
	const fireAt = 500 * 1000 * 1000 // 500us in ps
	r.e.SpawnAt(fireAt, "nic-dma", func(p *sim.Proc) {
		r.f.PostedWrite(nicEP, flag, []byte{7, 0, 0, 0, 0, 0, 0, 0})
	})
	var sawAt sim.Time
	var got uint64
	r.run(t, 1, 1, func(w *Warp) {
		got = w.PollGlobalU64(flag, 7)
		sawAt = w.Now()
	})
	if got != 7 {
		t.Fatalf("poll returned %#x", got)
	}
	if sawAt < fireAt || sawAt > fireAt+sim.Time(2*sim.Microsecond) {
		t.Fatalf("poll observed at %v, write at %v", sawAt, sim.Time(fireAt))
	}
	// ~496us of spinning at (3*8ns + 80ns) ≈ 104ns per probe ≈ 4800
	// probes; accounting must be in that ballpark, not 1 and not 5e6.
	c := r.g.Counters()
	if c.Globmem64Reads < 3000 || c.Globmem64Reads > 7000 {
		t.Fatalf("accounted %d probes, want ≈4800", c.Globmem64Reads)
	}
	if c.L2ReadHits < 3000 {
		t.Fatalf("skipped probes not counted as L2 hits: %d", c.L2ReadHits)
	}
	if c.InstrExecuted < 3*c.Globmem64Reads-10 {
		t.Fatalf("instruction accounting inconsistent: %d instr, %d loads", c.InstrExecuted, c.Globmem64Reads)
	}
}

func TestPollGlobalU64MaskedSmallPayload(t *testing.T) {
	r := newRig(t)
	base := r.g.DevMem().Base
	flag := base + 4096
	// Pre-pollute the high bytes; only the low 4 bytes are the stamp.
	if err := r.g.HostWriteU64(flag, 0xffffffff00000000); err != nil {
		t.Fatal(err)
	}
	nicEP := r.f.AddEndpoint("nic3", pcie.EndpointConfig{
		EgressRate: 4e9, OneWay: 150 * sim.Nanosecond, ReadLatency: 100 * sim.Nanosecond,
	})
	r.e.SpawnAt(10_000_000, "nic-dma", func(p *sim.Proc) {
		r.f.PostedWrite(nicEP, flag, []byte{0x2a, 0, 0, 0}) // 4-byte message
	})
	var got uint64
	r.run(t, 1, 1, func(w *Warp) {
		got = w.PollGlobalU64Masked(flag, 0x2a, 0xffffffff)
	})
	if got&0xffffffff != 0x2a {
		t.Fatalf("masked poll returned %#x", got)
	}
}

func TestPollGlobalU64ImmediateValue(t *testing.T) {
	// If the value already matches, the poll returns after one probe.
	r := newRig(t)
	base := r.g.DevMem().Base
	if err := r.g.HostWriteU64(base+8192, 99); err != nil {
		t.Fatal(err)
	}
	var took sim.Duration
	r.run(t, 1, 1, func(w *Warp) {
		s := w.Now()
		w.PollGlobalU64(base+8192, 99)
		took = w.Now().Sub(s)
	})
	if took > sim.Microsecond {
		t.Fatalf("immediate poll took %v", took)
	}
}

func TestAtomicAddSerializesCorrectly(t *testing.T) {
	r := newRig(t)
	ctr := r.g.DevMem().Base + 0x100
	// 8 blocks each add 5, ten times: final value must be 400 and the
	// returned old values across all blocks must be a permutation of
	// {0,5,...,395}.
	seen := map[uint64]bool{}
	r.run(t, 8, 1, func(w *Warp) {
		for i := 0; i < 10; i++ {
			old := w.AtomicAddGlobalU64(ctr, 5)
			if seen[old] {
				t.Errorf("atomicity violated: old value %d seen twice", old)
			}
			seen[old] = true
		}
	})
	v, _ := r.g.HostReadU64(ctr)
	if v != 400 {
		t.Fatalf("counter = %d, want 400", v)
	}
	if len(seen) != 80 {
		t.Fatalf("distinct old values = %d, want 80", len(seen))
	}
}

func TestCASGlobal(t *testing.T) {
	r := newRig(t)
	word := r.g.DevMem().Base + 0x200
	if err := r.g.HostWriteU64(word, 10); err != nil {
		t.Fatal(err)
	}
	r.run(t, 1, 1, func(w *Warp) {
		if old := w.CASGlobalU64(word, 10, 20); old != 10 {
			t.Errorf("first CAS old = %d", old)
		}
		if old := w.CASGlobalU64(word, 10, 30); old != 20 {
			t.Errorf("failed CAS old = %d", old)
		}
	})
	v, _ := r.g.HostReadU64(word)
	if v != 20 {
		t.Fatalf("word = %d, want 20 (second CAS must fail)", v)
	}
}

func TestAtomicSpinLockMutualExclusion(t *testing.T) {
	// A CAS spin lock among 4 blocks protecting a non-atomic counter:
	// increments must not be lost.
	r := newRig(t)
	lock := r.g.DevMem().Base + 0x300
	ctr := r.g.DevMem().Base + 0x308
	r.run(t, 4, 1, func(w *Warp) {
		for i := 0; i < 5; i++ {
			for w.CASGlobalU64(lock, 0, 1) != 0 {
				w.Exec(2)
			}
			v := w.LdGlobalU64(ctr)
			w.Exec(2)
			w.StGlobalU64(ctr, v+1)
			w.StGlobalU64(lock, 0)
		}
	})
	v, _ := r.g.HostReadU64(ctr)
	if v != 20 {
		t.Fatalf("lock-protected counter = %d, want 20", v)
	}
}

func TestMultiWarpBlockLaunch(t *testing.T) {
	r := newRig(t)
	// 100 threads = 4 warps: 32+32+32+4 lanes.
	var lanes []int
	var warpIDs []int
	r.run(t, 1, 1, func(w *Warp) {}) // warm the rig helper
	done := r.g.Launch(KernelConfig{Blocks: 1, ThreadsPerBlock: 100}, func(w *Warp) {
		lanes = append(lanes, w.Lanes)
		warpIDs = append(warpIDs, w.WarpID)
	})
	r.e.Run()
	if !done.Done() {
		t.Fatal("kernel stuck")
	}
	if len(lanes) != 4 {
		t.Fatalf("warps = %d, want 4", len(lanes))
	}
	total := 0
	for _, l := range lanes {
		total += l
	}
	if total != 100 {
		t.Fatalf("total lanes = %d, want 100", total)
	}
	seen := map[int]bool{}
	for _, id := range warpIDs {
		seen[id] = true
	}
	if len(seen) != 4 {
		t.Fatalf("warp IDs not distinct: %v", warpIDs)
	}
}

func TestSyncThreadsBarrier(t *testing.T) {
	r := newRig(t)
	// Warp 0 dawdles; no warp may pass the barrier before it arrives.
	var exits []sim.Time
	done := r.g.Launch(KernelConfig{Blocks: 1, ThreadsPerBlock: 128}, func(w *Warp) {
		if w.WarpID == 0 {
			w.Proc().Sleep(50 * sim.Microsecond)
		}
		w.SyncThreads()
		exits = append(exits, w.Now())
	})
	r.e.Run()
	if !done.Done() {
		t.Fatal("barrier deadlocked")
	}
	for _, e := range exits {
		if e < sim.Time(50*sim.Microsecond) {
			t.Fatalf("a warp passed the barrier at %v, before the slow warp arrived", e)
		}
	}
}

func TestSyncThreadsRepeats(t *testing.T) {
	r := newRig(t)
	count := 0
	done := r.g.Launch(KernelConfig{Blocks: 2, ThreadsPerBlock: 96}, func(w *Warp) {
		for i := 0; i < 10; i++ {
			w.SyncThreads()
		}
		count++
	})
	r.e.Run()
	if !done.Done() {
		t.Fatal("repeated barriers deadlocked")
	}
	if count != 6 { // 2 blocks × 3 warps
		t.Fatalf("finished warps = %d, want 6", count)
	}
}

func TestSharedMemoryRoundTripAndIsolation(t *testing.T) {
	r := newRig(t)
	vals := make([]uint64, 2)
	done := r.g.Launch(KernelConfig{Blocks: 2, ThreadsPerBlock: 32, SharedBytes: 256}, func(w *Warp) {
		// Each block writes its own value; blocks must not alias.
		w.StSharedU64(0, uint64(100+w.Block))
		w.SyncThreads()
		vals[w.Block] = w.LdSharedU64(0)
	})
	r.e.Run()
	if !done.Done() {
		t.Fatal("kernel stuck")
	}
	if vals[0] != 100 || vals[1] != 101 {
		t.Fatalf("shared values = %v (blocks alias?)", vals)
	}
}

func TestSharedReductionAcrossWarps(t *testing.T) {
	r := newRig(t)
	var result uint64
	done := r.g.Launch(KernelConfig{Blocks: 1, ThreadsPerBlock: 256, SharedBytes: 64}, func(w *Warp) {
		w.AtomicAddSharedU64(0, uint64(w.WarpID+1)) // 1+2+...+8 = 36
		w.SyncThreads()
		if w.WarpID == 0 {
			result = w.LdSharedU64(0)
		}
	})
	r.e.Run()
	if !done.Done() {
		t.Fatal("kernel stuck")
	}
	if result != 36 {
		t.Fatalf("shared reduction = %d, want 36", result)
	}
}

func TestSharedOutOfBoundsPanics(t *testing.T) {
	r := newRig(t)
	panicked := false
	done := r.g.Launch(KernelConfig{Blocks: 1, ThreadsPerBlock: 1, SharedBytes: 16}, func(w *Warp) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		w.StSharedU64(12, 1) // [12,20) crosses the 16-byte scratchpad
	})
	r.e.Run()
	_ = done
	if !panicked {
		t.Fatal("out-of-bounds shared access accepted")
	}
}

func TestSharedFasterThanGlobal(t *testing.T) {
	r := newRig(t)
	base := r.g.DevMem().Base
	var tShared, tGlobal sim.Duration
	done := r.g.Launch(KernelConfig{Blocks: 1, ThreadsPerBlock: 1, SharedBytes: 64}, func(w *Warp) {
		w.StSharedU64(0, 1)
		w.StGlobalU64(base, 1)
		w.LdGlobalU64(base) // warm L2
		s := w.Now()
		for i := 0; i < 100; i++ {
			w.LdSharedU64(0)
		}
		tShared = w.Now().Sub(s)
		s = w.Now()
		for i := 0; i < 100; i++ {
			w.LdGlobalU64(base)
		}
		tGlobal = w.Now().Sub(s)
	})
	r.e.Run()
	_ = done
	if tShared >= tGlobal {
		t.Fatalf("shared (%v) not faster than L2-resident global (%v)", tShared, tGlobal)
	}
}

func TestCopyEngineD2HAndH2D(t *testing.T) {
	r := newRig(t)
	dev := r.g.DevMem().Base + 0x1000
	host := memspace.Addr(0x4000)
	payload := make([]byte, 8192)
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	if err := r.g.HostWrite(dev, payload); err != nil {
		t.Fatal(err)
	}
	var d2h, h2d sim.Time
	r.e.Spawn("driver", func(p *sim.Proc) {
		r.g.Copy(p, host, dev, len(payload)) // D2H
		d2h = p.Now()
		r.g.Copy(p, dev+0x4000, host, len(payload)) // H2D
		h2d = p.Now()
	})
	r.e.Run()
	// The copy engines' events are pinned: both copies complete at their
	// instants (in ps) and the engine runs exactly as many events.
	if d2h != 2_980_000 || h2d != 6_560_000 {
		t.Errorf("copies done at %v and %v, want 2.98us and 6.56us", d2h, h2d)
	}
	if got, want := r.e.Executed(), uint64(13); got != want {
		t.Errorf("%d events executed, want %d", got, want)
	}
	got := make([]byte, len(payload))
	if err := r.f.Space().Read(host, got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != payload[i] {
			t.Fatalf("D2H corrupt at %d", i)
		}
	}
	if err := r.g.HostRead(dev+0x4000, got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != payload[i] {
			t.Fatalf("H2D corrupt at %d", i)
		}
	}
}

func TestCopyDirectionsOverlap(t *testing.T) {
	r := newRig(t)
	dev := r.g.DevMem().Base
	const n = 1 << 20
	single := func() sim.Duration {
		rr := newRig(t)
		var took sim.Duration
		rr.e.Spawn("d", func(p *sim.Proc) {
			s := p.Now()
			rr.g.Copy(p, memspace.Addr(0x10000), rr.g.DevMem().Base, n)
			took = p.Now().Sub(s)
		})
		rr.e.Run()
		return took
	}()
	var both sim.Duration
	r.e.Spawn("d", func(p *sim.Proc) {
		s := p.Now()
		d2h := r.g.CopyAsync(memspace.Addr(0x10000), dev, n)
		h2d := r.g.CopyAsync(dev+0x100000, memspace.Addr(0x200000), n)
		d2h.Wait(p)
		h2d.Wait(p)
		both = p.Now().Sub(s)
	})
	r.e.Run()
	// Opposite directions run on separate engines: far less than 2x.
	if float64(both) > 1.5*float64(single) {
		t.Fatalf("directions serialized: single=%v both=%v", single, both)
	}
}

func TestCopySameDirectionSerializes(t *testing.T) {
	r := newRig(t)
	dev := r.g.DevMem().Base
	const n = 1 << 20
	var first, second sim.Time
	r.e.Spawn("d", func(p *sim.Proc) {
		a := r.g.CopyAsync(memspace.Addr(0x10000), dev, n)
		b := r.g.CopyAsync(memspace.Addr(0x200000), dev+0x100000, n)
		a.Wait(p)
		first = a.At()
		b.Wait(p)
		second = b.At()
	})
	r.e.Run()
	if second < first+sim.Time(100*sim.Microsecond) {
		t.Fatalf("same-direction copies overlapped: %v then %v", first, second)
	}
}

func TestCopyRejectsSameMemory(t *testing.T) {
	r := newRig(t)
	defer func() {
		if recover() == nil {
			t.Fatal("device-to-device copy accepted")
		}
	}()
	r.g.CopyAsync(r.g.DevMem().Base, r.g.DevMem().Base+0x1000, 64)
}

func TestH2DCopyWakesDevicePollers(t *testing.T) {
	// A kernel polling device memory must observe data landed by an H2D
	// copy (the copy invalidates L2 and signals the pollers).
	r := newRig(t)
	flag := r.g.DevMem().Base + 0x9000
	host := memspace.Addr(0x8000)
	if err := r.f.Space().WriteU64(host, 0x1234); err != nil {
		t.Fatal(err)
	}
	r.e.SpawnAt(50_000_000, "driver", func(p *sim.Proc) {
		r.g.Copy(p, flag, host, 8)
	})
	var saw uint64
	r.run(t, 1, 1, func(w *Warp) {
		saw = w.PollGlobalU64(flag, 0x1234)
	})
	if saw != 0x1234 {
		t.Fatal("poller missed the H2D copy")
	}
}
