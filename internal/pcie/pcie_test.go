package pcie

import (
	"encoding/binary"
	"testing"

	"putget/internal/memspace"
	"putget/internal/sim"
)

// testbed builds a small fabric: host memory, a "gpu" with devmem and a
// P2P read collapse, and a "nic" with an MMIO BAR.
type testbed struct {
	e       *sim.Engine
	f       *Fabric
	hostEP  *Endpoint
	gpuEP   *Endpoint
	nicEP   *Endpoint
	cpuEP   *Endpoint
	hostRAM memspace.Region
	devRAM  memspace.Region
	bar     memspace.Region
	mmio    *recordingTarget
}

type recordingTarget struct {
	writes []mmioOp
	reads  int
	regVal uint64
}

type mmioOp struct {
	addr memspace.Addr
	data []byte
	at   sim.Time
}

func (r *recordingTarget) MMIOWrite(addr memspace.Addr, data []byte) {
	cp := append([]byte(nil), data...)
	r.writes = append(r.writes, mmioOp{addr: addr, data: cp})
}

func (r *recordingTarget) MMIORead(addr memspace.Addr, data []byte) {
	r.reads++
	for i := range data {
		data[i] = byte(r.regVal >> (8 * uint(i)))
	}
}

func newTestbed(t *testing.T) *testbed {
	t.Helper()
	e := sim.NewEngine()
	space := memspace.NewSpace()
	hostRAM := space.MustMap(0x0, memspace.NewRAM("hostram", 8<<20))
	devRAM := space.MustMap(0x1000_0000, memspace.NewRAM("devram", 8<<20))
	f := NewFabric(e, space)

	hostEP := f.AddEndpoint("hostmem", EndpointConfig{
		EgressRate: 8e9, OneWay: 100 * sim.Nanosecond, ReadLatency: 150 * sim.Nanosecond,
	})
	gpuEP := f.AddEndpoint("gpu", EndpointConfig{
		EgressRate: 8e9, OneWay: 350 * sim.Nanosecond, ReadLatency: 600 * sim.Nanosecond,
		ReadRate: func(total int) float64 {
			if total > 1<<20 {
				return 0.35e9
			}
			return 1.0e9
		},
	})
	nicEP := f.AddEndpoint("nic", EndpointConfig{
		EgressRate: 4e9, OneWay: 150 * sim.Nanosecond, ReadLatency: 100 * sim.Nanosecond,
	})
	cpuEP := f.AddEndpoint("cpu", EndpointConfig{
		EgressRate: 16e9, OneWay: 100 * sim.Nanosecond, ReadLatency: 100 * sim.Nanosecond,
	})

	f.ClaimRAM(hostEP, hostRAM)
	f.ClaimRAM(gpuEP, devRAM)
	bar := memspace.Region{Base: 0x2000_0000, Size: 0x1000}
	mmio := &recordingTarget{regVal: 0xabcd}
	f.ClaimMMIO(nicEP, bar, mmio)

	return &testbed{e: e, f: f, hostEP: hostEP, gpuEP: gpuEP, nicEP: nicEP, cpuEP: cpuEP,
		hostRAM: hostRAM, devRAM: devRAM, bar: bar, mmio: mmio}
}

func TestPostedWriteDelivers(t *testing.T) {
	tb := newTestbed(t)
	deliver := tb.f.PostedWrite(tb.cpuEP, 0x100, []byte{9, 8, 7})
	if deliver <= 0 {
		t.Fatal("delivery time not in the future")
	}
	tb.e.Run()
	got := make([]byte, 3)
	if err := tb.f.Space().Read(0x100, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 9 || got[1] != 8 || got[2] != 7 {
		t.Fatalf("payload = %v", got)
	}
}

func TestPostedWriteOrderingSameSource(t *testing.T) {
	tb := newTestbed(t)
	var order []int
	tb.gpuEP.OnInboundWrite = nil
	// Write to a far endpoint then a near one: delivery must not reorder.
	d1 := tb.f.PostedWrite(tb.cpuEP, tb.devRAM.Base, []byte{1}) // cpu→gpu (far)
	d2 := tb.f.PostedWrite(tb.cpuEP, 0x0, []byte{2})            // cpu→host (near)
	if d2 < d1 {
		t.Fatalf("posted writes reordered: %v then %v", d1, d2)
	}
	_ = order
	tb.e.Run()
}

func TestMMIOWriteTriggersTarget(t *testing.T) {
	tb := newTestbed(t)
	tb.f.PostedWrite(tb.gpuEP, tb.bar.Base+0x10, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	tb.e.Run()
	if len(tb.mmio.writes) != 1 {
		t.Fatalf("mmio writes = %d, want 1", len(tb.mmio.writes))
	}
	w := tb.mmio.writes[0]
	if w.addr != tb.bar.Base+0x10 || len(w.data) != 8 || w.data[0] != 1 {
		t.Fatalf("mmio op = %+v", w)
	}
}

func TestReadRoundTripLatency(t *testing.T) {
	tb := newTestbed(t)
	var took sim.Duration
	tb.e.Spawn("rd", func(p *sim.Proc) {
		start := p.Now()
		buf := make([]byte, 8)
		tb.f.Read(p, tb.gpuEP, 0x200, buf) // gpu reads host memory
		took = p.Now().Sub(start)
	})
	tb.e.Run()
	// Two flights (2×450ns) + 150ns service + serialization ≈ ≥1.05us.
	if took < 1000*sim.Nanosecond || took > 1300*sim.Nanosecond {
		t.Fatalf("gpu→sysmem read latency = %v, want ≈1.05–1.3us", took)
	}
}

func TestReadReturnsData(t *testing.T) {
	tb := newTestbed(t)
	if err := tb.f.Space().WriteU64(0x300, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	var got uint64
	tb.e.Spawn("rd", func(p *sim.Proc) {
		buf := make([]byte, 8)
		tb.f.Read(p, tb.nicEP, 0x300, buf)
		for i := 7; i >= 0; i-- {
			got = got<<8 | uint64(buf[i])
		}
	})
	tb.e.Run()
	if got != 0x1122334455667788 {
		t.Fatalf("read data = %#x", got)
	}
}

func TestMMIORead(t *testing.T) {
	tb := newTestbed(t)
	var got byte
	tb.e.Spawn("rd", func(p *sim.Proc) {
		buf := make([]byte, 2)
		tb.f.Read(p, tb.cpuEP, tb.bar.Base, buf)
		got = buf[0]
	})
	tb.e.Run()
	if tb.mmio.reads != 1 || got != 0xcd {
		t.Fatalf("mmio reads = %d, data = %#x", tb.mmio.reads, got)
	}
}

func TestReadBulkP2PCollapse(t *testing.T) {
	tb := newTestbed(t)
	timeFor := func(n int) sim.Duration {
		e := sim.NewEngine()
		// fresh testbed per measurement to avoid leftover reservations
		tbb := newTestbed(t)
		e = tbb.e
		var took sim.Duration
		e.Spawn("dma", func(p *sim.Proc) {
			start := p.Now()
			buf := make([]byte, n)
			p.SleepUntil(tbb.f.ReadBulkReserve(tbb.nicEP, tbb.devRAM.Base, buf))
			took = p.Now().Sub(start)
		})
		e.Run()
		return took
	}
	_ = tb
	small := timeFor(1 << 20) // 1 MiB at ~1.0 GB/s
	large := timeFor(4 << 20) // 4 MiB at ~0.35 GB/s
	smallBW := float64(1<<20) / small.Seconds()
	largeBW := float64(4<<20) / large.Seconds()
	if smallBW < 0.85e9 || smallBW > 1.05e9 {
		t.Fatalf("small-stream P2P bw = %.3g B/s, want ≈1e9", smallBW)
	}
	if largeBW > 0.4e9 || largeBW < 0.3e9 {
		t.Fatalf("large-stream P2P bw = %.3g B/s, want ≈0.35e9", largeBW)
	}
}

func TestReadBulkFromHostNotCollapsed(t *testing.T) {
	tb := newTestbed(t)
	var took sim.Duration
	tb.e.Spawn("dma", func(p *sim.Proc) {
		start := p.Now()
		buf := make([]byte, 4<<20)
		p.SleepUntil(tb.f.ReadBulkReserve(tb.nicEP, 0x0, buf))
		took = p.Now().Sub(start)
	})
	tb.e.Run()
	bw := float64(4<<20) / took.Seconds()
	if bw < 6e9 { // host egress is 8 GB/s; headers shave a little
		t.Fatalf("host bulk read bw = %.3g B/s, want near 8e9", bw)
	}
}

func TestWriteBulkDeliversOnceAtEnd(t *testing.T) {
	tb := newTestbed(t)
	fired := 0
	var firedAt sim.Time
	tb.gpuEP.OnInboundWrite = func(addr memspace.Addr, n int, _ sim.Time) {
		fired++
		firedAt = tb.e.Now()
		if n != 64<<10 {
			t.Errorf("inbound write size = %d, want 64KiB", n)
		}
	}
	data := make([]byte, 64<<10)
	data[len(data)-1] = 0x5a
	var sentDone sim.Time
	tb.e.Spawn("dma", func(p *sim.Proc) {
		sent, _ := tb.f.WritePayloadReserve(tb.nicEP, tb.devRAM.Base, data, nil)
		p.SleepUntil(sent)
		sentDone = p.Now()
	})
	tb.e.Run()
	if fired != 1 {
		t.Fatalf("inbound hook fired %d times, want 1", fired)
	}
	if firedAt < sentDone {
		t.Fatal("delivery before serialization finished")
	}
	got := make([]byte, 1)
	if err := tb.f.Space().Read(tb.devRAM.Base+(64<<10)-1, got); err != nil || got[0] != 0x5a {
		t.Fatalf("payload last byte = %v, %v", got, err)
	}
}

func TestFlushWrites(t *testing.T) {
	tb := newTestbed(t)
	var flushedAt, delivered sim.Time
	tb.e.Spawn("w", func(p *sim.Proc) {
		d := tb.f.PostedWrite(tb.gpuEP, 0x400, []byte{1, 2, 3, 4})
		delivered = d
		tb.f.FlushWrites(p, tb.gpuEP)
		flushedAt = p.Now()
	})
	tb.e.Run()
	if flushedAt < delivered {
		t.Fatalf("flush returned at %v before delivery %v", flushedAt, delivered)
	}
}

func TestEgressContentionSerializes(t *testing.T) {
	tb := newTestbed(t)
	// Two bulk reads from the same GPU target must share its egress link:
	// combined time ≈ 2× a single transfer, not 1×.
	single := func() sim.Duration {
		tbb := newTestbed(t)
		var took sim.Duration
		tbb.e.Spawn("a", func(p *sim.Proc) {
			start := p.Now()
			p.SleepUntil(tbb.f.ReadBulkReserve(tbb.nicEP, tbb.devRAM.Base, make([]byte, 256<<10)))
			took = p.Now().Sub(start)
		})
		tbb.e.Run()
		return took
	}()
	var aDone, bDone sim.Time
	tb.e.Spawn("a", func(p *sim.Proc) {
		p.SleepUntil(tb.f.ReadBulkReserve(tb.nicEP, tb.devRAM.Base, make([]byte, 256<<10)))
		aDone = p.Now()
	})
	tb.e.Spawn("b", func(p *sim.Proc) {
		p.SleepUntil(tb.f.ReadBulkReserve(tb.cpuEP, tb.devRAM.Base+0x1000, make([]byte, 256<<10)))
		bDone = p.Now()
	})
	tb.e.Run()
	last := aDone
	if bDone > last {
		last = bDone
	}
	if sim.Duration(last) < sim.Duration(float64(single)*1.8) {
		t.Fatalf("concurrent bulk reads did not serialize: single=%v last=%v", single, last)
	}
}

func TestUnownedAddressPanics(t *testing.T) {
	tb := newTestbed(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unowned address")
		}
	}()
	tb.f.PostedWrite(tb.cpuEP, 0xdead_0000_0000, []byte{1})
}

func TestClaimOverlapPanics(t *testing.T) {
	tb := newTestbed(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for overlapping claim")
		}
	}()
	tb.f.ClaimRAM(tb.hostEP, memspace.Region{Base: tb.bar.Base, Size: 16})
}

func TestWireBytes(t *testing.T) {
	if wireBytes(1) != 1+TLPHeader {
		t.Errorf("wireBytes(1) = %d", wireBytes(1))
	}
	if wireBytes(ChunkSize) != ChunkSize+TLPHeader {
		t.Errorf("wireBytes(chunk) = %d", wireBytes(ChunkSize))
	}
	if wireBytes(ChunkSize+1) != ChunkSize+1+2*TLPHeader {
		t.Errorf("wireBytes(chunk+1) = %d", wireBytes(ChunkSize+1))
	}
}

func TestEndpointStats(t *testing.T) {
	tb := newTestbed(t)
	tb.e.Spawn("traffic", func(p *sim.Proc) {
		tb.f.PostedWrite(tb.cpuEP, 0x100, []byte{1, 2, 3, 4})
		buf := make([]byte, 8)
		tb.f.Read(p, tb.cpuEP, 0x100, buf)
		big := make([]byte, 64<<10)
		p.SleepUntil(tb.f.ReadBulkReserve(tb.nicEP, tb.devRAM.Base, big))
		tb.f.WritePayloadReserve(tb.nicEP, 0x2000, big, nil)
	})
	tb.e.Run()
	cpu := tb.cpuEP.Stats()
	if cpu.PostedWrites != 1 || cpu.BytesWritten != 4 {
		t.Fatalf("cpu write stats %+v", cpu)
	}
	if cpu.Reads != 1 || cpu.BytesRead != 8 {
		t.Fatalf("cpu read stats %+v", cpu)
	}
	nic := tb.nicEP.Stats()
	if nic.BulkReads != 1 || nic.BytesRead != 64<<10 {
		t.Fatalf("nic bulk read stats %+v", nic)
	}
	if nic.PostedWrites != 1 || nic.BytesWritten != 64<<10 {
		t.Fatalf("nic bulk write stats %+v", nic)
	}
	nicCopy := tb.nicEP
	nicCopy.ResetStats()
	if tb.nicEP.Stats() != (Stats{}) {
		t.Fatal("reset did not clear stats")
	}
}

func TestUtilizationVisible(t *testing.T) {
	tb := newTestbed(t)
	tb.f.WritePayloadReserve(tb.nicEP, tb.devRAM.Base, make([]byte, 1<<20), nil)
	tb.e.Run()
	if tb.nicEP.Egress().BusyTotal() <= 0 {
		t.Fatal("egress utilization not accumulated")
	}
}

// TestWordAccesses checks word-sized accesses through the byte forms
// with stack buffers: a 4- or 8-byte write lands exactly its bytes, a
// 4-byte read of a word returns its low half (zero-extended by the
// caller), and a word read takes the same time as any other 8-byte Read.
func TestWordAccesses(t *testing.T) {
	tb := newTestbed(t)
	var w8, w4 [8]byte
	binary.LittleEndian.PutUint64(w8[:], 0x1122334455667788)
	binary.LittleEndian.PutUint64(w4[:], 0xaabbccdd99)
	tb.f.PostedWrite(tb.cpuEP, 0x100, w8[:])
	tb.f.PostedWrite(tb.cpuEP, 0x200, w4[:4])
	tb.e.Run()
	got := make([]byte, 8)
	if err := tb.f.Space().Read(0x200, got); err != nil {
		t.Fatal(err)
	}
	if want := []byte{0x99, 0xdd, 0xcc, 0xbb, 0, 0, 0, 0}; string(got) != string(want) {
		t.Fatalf("4-byte word write landed % x, want % x", got, want)
	}
	var v64, v32 uint64
	var tWord, tRead sim.Time
	tb.e.Spawn("reader", func(p *sim.Proc) {
		var b8 [8]byte
		start := p.Now()
		tb.f.Read(p, tb.gpuEP, 0x100, b8[:])
		tWord = p.Now() - start
		v64 = binary.LittleEndian.Uint64(b8[:])
		var b4 [4]byte
		tb.f.Read(p, tb.gpuEP, 0x100, b4[:])
		v32 = uint64(binary.LittleEndian.Uint32(b4[:]))
		start = p.Now()
		tb.f.Read(p, tb.gpuEP, 0x100, make([]byte, 8))
		tRead = p.Now() - start
	})
	tb.e.Run()
	if v64 != 0x1122334455667788 || v32 != 0x55667788 {
		t.Fatalf("word reads = %#x, %#x", v64, v32)
	}
	if tWord != tRead {
		t.Fatalf("stack-buffer word read took %v, Read %v", tWord, tRead)
	}
}

// TestPostedWriteCopiesAtPost overwrites the caller's buffer right after
// each PostedWrite, to RAM and to an MMIO target: the write still
// delivers the bytes as they were when it was posted.
func TestPostedWriteCopiesAtPost(t *testing.T) {
	tb := newTestbed(t)
	buf := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	tb.f.PostedWrite(tb.cpuEP, 0x100, buf)
	copy(buf, []byte{9, 9, 9, 9, 9, 9, 9, 9})
	tb.f.PostedWrite(tb.gpuEP, tb.bar.Base+0x10, buf)
	clear(buf)
	tb.e.Run()
	got := make([]byte, 8)
	if err := tb.f.Space().Read(0x100, got); err != nil {
		t.Fatal(err)
	}
	if want := []byte{1, 2, 3, 4, 5, 6, 7, 8}; string(got) != string(want) {
		t.Fatalf("RAM write delivered % x, want % x", got, want)
	}
	if len(tb.mmio.writes) != 1 || string(tb.mmio.writes[0].data) != string([]byte{9, 9, 9, 9, 9, 9, 9, 9}) {
		t.Fatalf("MMIO write delivered %+v, want eight 9s", tb.mmio.writes)
	}
}

// TestWritesDoNotAllocate pins the posted-write paths and the blocking
// read at zero allocations per op, once warm: each travels in a pooled
// op that keeps its byte buffer, so stack-array words neither escape
// nor get copied to the heap.
func TestWritesDoNotAllocate(t *testing.T) {
	tb := newTestbed(t)
	defer tb.e.Shutdown()
	data := make([]byte, 8)
	var v uint64
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"PostedWrite", func() { tb.f.PostedWrite(tb.cpuEP, 0x100, data) }},
		{"PostedWrite/stack word", func() {
			v++
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], v)
			tb.f.PostedWrite(tb.cpuEP, 0x108, b[:])
		}},
		{"PostedWrite/stack WQE", func() {
			var b [64]byte
			tb.f.PostedWrite(tb.gpuEP, 0x400, b[:])
		}},
		{"WritePayloadReserve", func() {
			pl := tb.e.NewPayload(64)
			tb.f.WritePayloadReserve(tb.nicEP, tb.devRAM.Base, pl.B, pl)
		}},
	} {
		step := func() {
			tc.op()
			tb.e.Run()
		}
		step()
		if got := testing.AllocsPerRun(1000, step); got != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, got)
		}
	}
	// The reader proc does one stack-buffer Read per step.
	var reads int
	tb.e.Spawn("reader", func(p *sim.Proc) {
		for {
			var b [8]byte
			tb.f.Read(p, tb.cpuEP, 0x100, b[:])
			reads++
		}
	})
	step := func() {
		for want := reads + 1; reads < want; {
			tb.e.RunUntil(tb.e.Now() + sim.Time(100*sim.Nanosecond))
		}
	}
	step()
	if got := testing.AllocsPerRun(1000, step); got != 0 {
		t.Errorf("Read/stack word: %v allocs/op, want 0", got)
	}
}

// TestInboundHorizon lists the writes in flight to a RAM endpoint: the
// horizon is the first landing among them, or one flight from the
// nearest endpoint if that is sooner (the host and CPU, 100 ns, plus the GPU's 350 ns).
// Writes to other endpoints and to MMIO do not count, and a landed write
// leaves the list.
func TestInboundHorizon(t *testing.T) {
	tb := newTestbed(t)
	idle := func() sim.Time { return tb.e.Now().Add(450 * sim.Nanosecond) }
	if h := tb.f.InboundHorizon(tb.gpuEP); h != idle() {
		t.Fatalf("idle horizon %v, want %v", h, idle())
	}
	tb.f.PostedWrite(tb.cpuEP, 0x100, []byte{1})       // host RAM
	tb.f.PostedWrite(tb.cpuEP, tb.bar.Base, []byte{1}) // MMIO
	late := tb.f.PostedWrite(tb.nicEP, tb.devRAM.Base, make([]byte, 4096))
	early := tb.f.PostedWrite(tb.cpuEP, tb.devRAM.Base+64, []byte{2})
	if early >= late {
		t.Fatalf("test wants the CPU's word (%v) to land before the NIC's page (%v)", early, late)
	}
	tb.e.RunUntil(sim.Time(100 * sim.Nanosecond)) // a write posted now lands after both
	if h := tb.f.InboundHorizon(tb.gpuEP); h != early {
		t.Fatalf("horizon %v, want the first landing %v", h, early)
	}
	tb.e.RunUntil(late - sim.Time(100*sim.Nanosecond))
	if h := tb.f.InboundHorizon(tb.gpuEP); h != late {
		t.Fatalf("horizon after the first landing %v, want %v", h, late)
	}
	tb.e.Run()
	if h := tb.f.InboundHorizon(tb.gpuEP); h != idle() {
		t.Fatalf("horizon with nothing in flight %v, want %v", h, idle())
	}
}
