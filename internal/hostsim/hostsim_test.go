package hostsim

import (
	"testing"

	"putget/internal/memspace"
	"putget/internal/pcie"
	"putget/internal/sim"
)

type rig struct {
	e     *sim.Engine
	f     *pcie.Fabric
	cpu   *CPU
	dev   memspace.Region
	bar   memspace.Region
	nic   *fakeNIC
	devEP *pcie.Endpoint
}

type fakeNIC struct {
	writes [][]byte
}

func (n *fakeNIC) MMIOWrite(addr memspace.Addr, data []byte) {
	n.writes = append(n.writes, append([]byte(nil), data...))
}
func (n *fakeNIC) MMIORead(addr memspace.Addr, data []byte) {
	for i := range data {
		data[i] = 0xee
	}
}

func newRig(t *testing.T) *rig {
	t.Helper()
	e := sim.NewEngine()
	space := memspace.NewSpace()
	host := space.MustMap(0, memspace.NewRAM("host", 1<<20))
	dev := space.MustMap(0x1000_0000, memspace.NewRAM("dev", 1<<20))
	f := pcie.NewFabric(e, space)
	hostEP := f.AddEndpoint("hostmem", pcie.EndpointConfig{EgressRate: 8e9, OneWay: 100 * sim.Nanosecond, ReadLatency: 150 * sim.Nanosecond})
	devEP := f.AddEndpoint("dev", pcie.EndpointConfig{EgressRate: 8e9, OneWay: 350 * sim.Nanosecond, ReadLatency: 600 * sim.Nanosecond})
	f.ClaimRAM(hostEP, host)
	f.ClaimRAM(devEP, dev)
	nic := &fakeNIC{}
	bar := memspace.Region{Base: 0x2000_0000, Size: 0x1000}
	nicEP := f.AddEndpoint("nic", pcie.EndpointConfig{EgressRate: 4e9, OneWay: 150 * sim.Nanosecond, ReadLatency: 100 * sim.Nanosecond})
	f.ClaimMMIO(nicEP, bar, nic)
	cpu := New(e, f, Config{
		Name:          "cpu0",
		MemLatency:    90 * sim.Nanosecond,
		MMIOWriteCost: 50 * sim.Nanosecond,
		WRGenCost:     60 * sim.Nanosecond,
		HostRAM:       host,
		PCIe:          pcie.EndpointConfig{EgressRate: 16e9, OneWay: 100 * sim.Nanosecond, ReadLatency: 100 * sim.Nanosecond},
	})
	hostEP.OnInboundWrite = cpu.NotifyInboundWrite
	return &rig{e: e, f: f, cpu: cpu, dev: dev, bar: bar, nic: nic, devEP: devEP}
}

func TestLocalMemoryFast(t *testing.T) {
	r := newRig(t)
	var took sim.Duration
	r.e.Spawn("t", func(p *sim.Proc) {
		start := p.Now()
		r.cpu.WriteU64(p, 0x100, 7)
		if v := r.cpu.ReadU64(p, 0x100); v != 7 {
			t.Errorf("read back %d", v)
		}
		took = p.Now().Sub(start)
	})
	r.e.Run()
	if took != 180*sim.Nanosecond {
		t.Fatalf("local r+w took %v, want 180ns", took)
	}
}

func TestRemoteReadCrossesFabric(t *testing.T) {
	r := newRig(t)
	if err := r.f.Space().WriteU64(r.dev.Base, 99); err != nil {
		t.Fatal(err)
	}
	var took sim.Duration
	var v uint64
	r.e.Spawn("t", func(p *sim.Proc) {
		start := p.Now()
		v = r.cpu.ReadU64(p, r.dev.Base)
		took = p.Now().Sub(start)
	})
	r.e.Run()
	if v != 99 {
		t.Fatalf("remote read = %d", v)
	}
	if took < sim.Microsecond {
		t.Fatalf("remote read took %v, want ≥1us", took)
	}
}

func TestMMIOWriteReachesTarget(t *testing.T) {
	r := newRig(t)
	r.e.Spawn("t", func(p *sim.Proc) {
		r.cpu.WriteU64(p, r.bar.Base, 0xabcdef)
		r.cpu.MMIOWriteBurst(p, r.bar.Base+8, make([]byte, 24))
	})
	r.e.Run()
	if len(r.nic.writes) != 2 {
		t.Fatalf("nic got %d writes, want 2", len(r.nic.writes))
	}
	if len(r.nic.writes[1]) != 24 {
		t.Fatalf("burst size = %d, want 24", len(r.nic.writes[1]))
	}
}

func TestWaitFlagSeesPostedWrite(t *testing.T) {
	r := newRig(t)
	flag := memspace.Addr(0x500)
	var detected sim.Time
	r.e.Spawn("waiter", func(p *sim.Proc) {
		r.cpu.WaitFlag(p, flag, 1)
		detected = p.Now()
	})
	// Another device posts the flag at 5us (a DMA write over the fabric).
	r.e.SpawnAt(5_000_000, "setter", func(p *sim.Proc) {
		r.f.PostedWrite(r.devEP, flag, []byte{1, 0, 0, 0, 0, 0, 0, 0})
	})
	r.e.Run()
	if detected < 5_000_000 {
		t.Fatalf("flag detected at %v before it was set", detected)
	}
	if detected > 5_000_000+sim.Time(1200*sim.Nanosecond) {
		t.Fatalf("flag detection too slow: %v", detected)
	}
}

func TestPollU64ReturnsSatisfyingValue(t *testing.T) {
	r := newRig(t)
	addr := memspace.Addr(0x600)
	var got uint64
	r.e.Spawn("p", func(p *sim.Proc) {
		got = r.cpu.PollU64(p, addr, func(v uint64) bool { return v >= 3 })
	})
	r.e.SpawnAt(1_000_000, "w", func(p *sim.Proc) {
		r.f.PostedWrite(r.devEP, addr, []byte{5, 0, 0, 0, 0, 0, 0, 0})
	})
	r.e.Run()
	if got != 5 {
		t.Fatalf("poll returned %d, want 5", got)
	}
}

func TestGenWRCost(t *testing.T) {
	r := newRig(t)
	var took sim.Duration
	r.e.Spawn("t", func(p *sim.Proc) {
		s := p.Now()
		r.cpu.GenWR(p)
		took = p.Now().Sub(s)
	})
	r.e.Run()
	if took != 60*sim.Nanosecond {
		t.Fatalf("GenWR took %v", took)
	}
}

func TestRemotePollPaysRoundTrips(t *testing.T) {
	// Polling across PCIe must not use the parked fast path: each probe
	// is a full round trip, and the value is still observed.
	r := newRig(t)
	addr := r.dev.Base + 0x40
	var took sim.Duration
	r.e.Spawn("poll", func(p *sim.Proc) {
		s := p.Now()
		r.cpu.PollU64(p, addr, func(v uint64) bool { return v == 9 })
		took = p.Now().Sub(s)
	})
	r.e.SpawnAt(10_000_000, "set", func(p *sim.Proc) {
		r.f.Space().WriteU64(addr, 9) // functional write; no host signal
	})
	r.e.Run()
	if took < 10*sim.Microsecond {
		t.Fatalf("remote poll returned too early: %v", took)
	}
}

func TestMMIOBurstKeepsOrderWithFlagWrite(t *testing.T) {
	// A WR burst followed by a host-memory flag write: the NIC must see
	// the burst before anyone sees the flag (same-source posted ordering
	// is what the host-assisted protocol relies on).
	r := newRig(t)
	var burstAt, flagAt sim.Time
	done := make(chan struct{}, 1)
	_ = done
	r.e.Spawn("t", func(p *sim.Proc) {
		r.cpu.MMIOWriteBurst(p, r.bar.Base, make([]byte, 24))
		r.cpu.WriteU64(p, 0x700, 1)
	})
	r.e.Spawn("watch", func(p *sim.Proc) {
		r.cpu.WaitFlag(p, 0x700, 1)
		flagAt = p.Now()
		if len(r.nic.writes) == 0 {
			t.Error("flag visible before the MMIO burst")
		} else {
			burstAt = flagAt // burst already delivered
		}
	})
	r.e.Run()
	_ = burstAt
}

// TestWriteAcrossPCIeCopiesAtPost overwrites the caller's buffer right
// after a Write to device memory and an MMIOWriteBurst to a BAR: both
// still deliver the bytes as they were when the store was posted.
func TestWriteAcrossPCIeCopiesAtPost(t *testing.T) {
	r := newRig(t)
	r.e.Spawn("t", func(p *sim.Proc) {
		buf := []byte{1, 2, 3, 4, 5, 6, 7, 8}
		r.cpu.Write(p, r.dev.Base, buf)
		copy(buf, []byte{9, 9, 9, 9, 9, 9, 9, 9})
		r.cpu.MMIOWriteBurst(p, r.bar.Base, buf)
		clear(buf)
	})
	r.e.Run()
	got := make([]byte, 8)
	if err := r.f.Space().Read(r.dev.Base, got); err != nil {
		t.Fatal(err)
	}
	if want := []byte{1, 2, 3, 4, 5, 6, 7, 8}; string(got) != string(want) {
		t.Fatalf("Write delivered % x, want % x", got, want)
	}
	if len(r.nic.writes) != 1 || string(r.nic.writes[0]) != string([]byte{9, 9, 9, 9, 9, 9, 9, 9}) {
		t.Fatalf("MMIOWriteBurst delivered %v, want eight 9s", r.nic.writes)
	}
}
