package main

import (
	"flag"
	"fmt"
	"testing"

	"putget/internal/cluster"
	"putget/internal/gpusim"
	"putget/internal/sim"
	"putget/internal/topo"
	"putget/internal/transport"
	"putget/internal/wire"
)

// micro is one per-layer microbenchmark: a public call of one layer in a
// b.N loop. It reports <name>_ns (or _ms) and <name>_allocs per op.
type micro struct {
	name string
	ms   bool // report milliseconds instead of nanoseconds
	fn   func(b *testing.B)
}

var micros = []micro{
	{name: "sim.schedule", fn: benchSchedule},
	{name: "sim.timer", fn: benchTimer},
	{name: "sim.handoff", fn: benchHandoff},
	{name: "memspace.read_u64", fn: benchSpaceRead},
	{name: "pcie.posted_write", fn: benchPostedWrite},
	{name: "hostsim.read", fn: benchHostRead},
	{name: "gpusim.st_global", fn: benchStGlobal},
	{name: "wire.send", fn: benchWireSend},
	{name: "topo.send", fn: benchTopoSend},
	{name: "extoll.put", fn: benchPut(transport.KindExtoll)},
	{name: "ibsim.put", fn: benchPut(transport.KindIB)},
	{name: "cluster.build_1024", ms: true, fn: benchBuild1024},
}

// microMetricNames returns the metric names runMicros reports.
func microMetricNames() []string {
	var names []string
	for _, m := range micros {
		unit := "_ns"
		if m.ms {
			unit = "_ms"
		}
		names = append(names, m.name+unit, m.name+"_allocs")
	}
	return names
}

// runMicros runs every microbenchmark reps times for about benchtime
// each and returns the medians. ns/op is the float T/N, not the
// truncated NsPerOp.
func runMicros(reps int, benchtime string) (map[string]float64, error) {
	testing.Init()
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, m := range micros {
		var ts, as []float64
		for r := 0; r < reps; r++ {
			res := testing.Benchmark(m.fn)
			if res.N == 0 {
				return nil, fmt.Errorf("microbenchmark %s failed", m.name)
			}
			ts = append(ts, float64(res.T.Nanoseconds())/float64(res.N))
			as = append(as, float64(res.MemAllocs)/float64(res.N))
		}
		if m.ms {
			out[m.name+"_ms"] = quartiles(ts)[1] / 1e6
		} else {
			out[m.name+"_ns"] = quartiles(ts)[1]
		}
		out[m.name+"_allocs"] = quartiles(as)[1]
	}
	return out, nil
}

// benchSchedule is one event armed and dispatched on a shared engine.
func benchSchedule(b *testing.B) {
	e := sim.NewEngine()
	defer e.Shutdown()
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(e.Now()+1, fn)
		e.Run()
	}
}

// benchTimer arms two cancellable timers, cancels one and drains the
// other: the KV coordinator's deadline pattern.
func benchTimer(b *testing.B) {
	e := sim.NewEngine()
	defer e.Shutdown()
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t1 := e.AfterTimer(1, fn)
		e.AfterTimer(2, fn)
		t1.Cancel()
		e.Run()
	}
}

// benchHandoff is one engine -> proc -> engine control transfer: a
// resident process sleeps one tick per op.
func benchHandoff(b *testing.B) {
	e := sim.NewEngine()
	defer e.Shutdown()
	e.Spawn("sleeper", func(p *sim.Proc) {
		for {
			p.Sleep(1)
		}
	})
	e.RunUntil(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunUntil(sim.Time(i + 1))
	}
}

// pairTestbed builds the two-node testbed of fabric k with default
// parameters.
func pairTestbed(k transport.Kind) *cluster.Testbed {
	if k == transport.KindExtoll {
		return cluster.NewExtollPair(cluster.Default())
	}
	return cluster.NewIBPair(cluster.Default())
}

// benchSpaceRead is one 8-byte address-space lookup and RAM read.
func benchSpaceRead(b *testing.B) {
	tb := pairTestbed(transport.KindExtoll)
	defer tb.Shutdown()
	addr := tb.A.AllocHost(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tb.A.Space.ReadU64(addr); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPostedWrite is one 8-byte CPU posted write into host RAM,
// delivered.
func benchPostedWrite(b *testing.B) {
	tb := pairTestbed(transport.KindExtoll)
	defer tb.Shutdown()
	addr := tb.A.AllocHost(8)
	ep := tb.A.CPU.Endpoint()
	data := make([]byte, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.A.Fabric.PostedWrite(ep, addr, data)
		tb.E.Run()
	}
}

// benchHostRead is one iteration of a host poll of host RAM.
func benchHostRead(b *testing.B) {
	tb := pairTestbed(transport.KindExtoll)
	defer tb.Shutdown()
	addr := tb.A.AllocHost(8)
	n := b.N
	tb.E.Spawn("poll", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			tb.A.CPU.ReadU64(p, addr)
		}
	})
	b.ResetTimer()
	tb.E.Run()
}

// benchStGlobal is one warp store of a 64-bit word to device memory.
func benchStGlobal(b *testing.B) {
	tb := pairTestbed(transport.KindExtoll)
	defer tb.Shutdown()
	addr := tb.A.AllocDev(8)
	n := b.N
	done := tb.A.GPU.Launch(gpusim.KernelConfig{Blocks: 1}, func(w *gpusim.Warp) {
		for i := 0; i < n; i++ {
			w.StGlobalU64(addr, uint64(i))
		}
	})
	b.ResetTimer()
	tb.E.Run()
	if !done.Done() {
		b.Fatal("store kernel did not finish")
	}
}

// benchWireSend is one 64-byte packet through a point-to-point link,
// delivered and received.
func benchWireSend(b *testing.B) {
	e := sim.NewEngine()
	defer e.Shutdown()
	l := wire.NewLink[int](e, 10e9, 100*sim.Nanosecond)
	n := b.N
	e.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			l.Send(i, 64)
			p.Sleep(sim.Microsecond)
			if l.Pending() > 0 {
				l.Recv(p)
			}
		}
	})
	b.ResetTimer()
	e.Run()
}

// benchTopoSend is one 64-byte packet across a 16-node fat-tree between
// leaves (leaf, spine, leaf: four cables), delivered and received.
func benchTopoSend(b *testing.B) {
	e := sim.NewEngine()
	defer e.Shutdown()
	nt := topo.NewNet[int](e, topo.Spec{Kind: topo.FatTree}, 16,
		topo.LinkConfig{BytesPerSecond: 10e9, Latency: 100 * sim.Nanosecond}, "bench", func(int) int { return 0 })
	nt.Bind(0, 0, 15)
	src, dst := nt.Port(0), nt.Port(15)
	n := b.N
	e.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			src.Send(i, 64)
			p.Sleep(2 * sim.Microsecond)
			if dst.Pending() > 0 {
				dst.Recv(p)
			}
		}
	})
	b.ResetTimer()
	e.Run()
}

// benchPut is one 64-byte host put through the NIC of fabric k, reaped
// as a local completion (on IB that is the responder's ack).
func benchPut(k transport.Kind) func(b *testing.B) {
	return func(b *testing.B) {
		tb := pairTestbed(k)
		defer tb.Shutdown()
		tr := transport.New(k, tb)
		srcR := tr.Register(tb.A, tb.A.AllocDev(64), 64)
		dstR := tr.Register(tb.B, tb.B.AllocDev(64), 64)
		ep, _ := tr.Connect(0, transport.ConnHint{})
		n := b.N
		failed := false
		tb.E.Spawn("put", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				ep.HostPut(p, srcR, 0, dstR, 0, 64, transport.FlagLocalComp)
				if c, ok := ep.HostWaitCompleteTimeout(p, transport.CompLocal, 100*sim.Microsecond); !ok || c.Err {
					failed = true
					return
				}
			}
		})
		b.ResetTimer()
		tb.E.Run()
		if failed {
			b.Fatal("put did not complete")
		}
	}
}

// benchBuild1024 is one lazy 1024-node EXTOLL fat-tree construction.
func benchBuild1024(b *testing.B) {
	p := allReduceParams()
	for i := 0; i < b.N; i++ {
		cluster.NewClusterOn(cluster.FabricExtoll, topo.Spec{Kind: topo.FatTree}, 1024, p).Shutdown()
	}
}
