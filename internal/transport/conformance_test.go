package transport

// The conformance suite pins the Endpoint contract against every backend:
// whatever fabric sits underneath, an Endpoint must deliver puts in order,
// complete each flagged operation exactly once, respect bounded waits, and
// surface fault-path failures as Err/Timeout completions. A third backend
// (DESIGN.md) is expected to pass this file unchanged.

import (
	"bytes"
	"encoding/binary"
	"testing"

	"putget/internal/cluster"
	"putget/internal/extoll"
	"putget/internal/gpusim"
	"putget/internal/memspace"
	"putget/internal/sim"
)

type rig struct {
	tb         *cluster.Testbed
	tr         Transport
	aBuf, bBuf memspace.Addr
	aR, bR     Region
	a, b       Endpoint
}

const rigBuf = 1 << 20

func newRig(t *testing.T, k Kind, p cluster.Params, hint ConnHint) *rig {
	t.Helper()
	var tb *cluster.Testbed
	if k == KindExtoll {
		tb = cluster.NewExtollPair(p)
	} else {
		tb = cluster.NewIBPair(p)
	}
	tr := New(k, tb)
	aBuf := tb.A.AllocDev(rigBuf)
	bBuf := tb.B.AllocDev(rigBuf)
	aR := tr.Register(tb.A, aBuf, rigBuf)
	bR := tr.Register(tb.B, bBuf, rigBuf)
	a, b := tr.Connect(0, hint)
	return &rig{tb: tb, tr: tr, aBuf: aBuf, bBuf: bBuf, aR: aR, bR: bR, a: a, b: b}
}

func forBoth(t *testing.T, f func(t *testing.T, k Kind)) {
	for _, k := range []Kind{KindExtoll, KindIB} {
		k := k
		t.Run(k.String(), func(t *testing.T) { f(t, k) })
	}
}

func mustDone(t *testing.T, d interface{ Done() bool }, what string) {
	t.Helper()
	if !d.Done() {
		t.Fatalf("%s did not complete (deadlock?)", what)
	}
}

func TestConformanceDevPutRoundTrip(t *testing.T) {
	forBoth(t, func(t *testing.T, k Kind) {
		r := newRig(t, k, cluster.Default(), ConnHint{})
		defer r.tb.Shutdown()
		payload := make([]byte, 4096)
		for i := range payload {
			payload[i] = byte(i*7 + 3)
		}
		if err := r.tb.A.GPU.HostWrite(r.aBuf, payload); err != nil {
			t.Fatal(err)
		}
		var comp Completion
		done := r.tb.A.GPU.Launch(gpusim.KernelConfig{Blocks: 1}, func(w *gpusim.Warp) {
			r.a.DevPut(w, r.aR, 0, r.bR, 0, len(payload), FlagLocalComp)
			comp = r.a.DevWaitComplete(w, CompLocal)
		})
		r.tb.E.Run()
		mustDone(t, done, "put kernel")
		if comp.Err || comp.Timeout {
			t.Fatalf("healthy put completed with %+v", comp)
		}
		got := make([]byte, len(payload))
		if err := r.tb.B.GPU.HostRead(r.bBuf, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("put payload corrupted")
		}
	})
}

func TestConformanceDevPutCollectiveRoundTrip(t *testing.T) {
	forBoth(t, func(t *testing.T, k Kind) {
		r := newRig(t, k, cluster.Default(), ConnHint{})
		defer r.tb.Shutdown()
		payload := make([]byte, 512)
		for i := range payload {
			payload[i] = byte(i*3 + 11)
		}
		if err := r.tb.A.GPU.HostWrite(r.aBuf, payload); err != nil {
			t.Fatal(err)
		}
		done := r.tb.A.GPU.Launch(gpusim.KernelConfig{Blocks: 1, ThreadsPerBlock: 32}, func(w *gpusim.Warp) {
			r.a.DevPutCollective(w, r.aR, 0, r.bR, 0, len(payload), FlagLocalComp)
			r.a.DevWaitComplete(w, CompLocal)
		})
		r.tb.E.Run()
		mustDone(t, done, "collective put kernel")
		got := make([]byte, len(payload))
		if err := r.tb.B.GPU.HostRead(r.bBuf, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("collective put payload corrupted")
		}
	})
}

// TestConformanceOrdering: puts on one connection are delivered in post
// order, so when the final put (the only flagged one) completes locally,
// every earlier payload has already landed.
func TestConformanceOrdering(t *testing.T) {
	forBoth(t, func(t *testing.T, k Kind) {
		r := newRig(t, k, cluster.Default(), ConnHint{})
		defer r.tb.Shutdown()
		const n, chunk = 8, 256
		src := make([]byte, n*chunk)
		for i := range src {
			src[i] = byte(i*13 + 1)
		}
		if err := r.tb.A.GPU.HostWrite(r.aBuf, src); err != nil {
			t.Fatal(err)
		}
		done := r.tb.A.GPU.Launch(gpusim.KernelConfig{Blocks: 1}, func(w *gpusim.Warp) {
			for i := 0; i < n; i++ {
				flags := 0
				if i == n-1 {
					flags = FlagLocalComp
				}
				r.a.DevPut(w, r.aR, uint64(i*chunk), r.bR, uint64(i*chunk), chunk, flags)
			}
			r.a.DevWaitComplete(w, CompLocal)
		})
		r.tb.E.Run()
		mustDone(t, done, "ordered put kernel")
		got := make([]byte, n*chunk)
		if err := r.tb.B.GPU.HostRead(r.bBuf, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, src) {
			t.Fatal("in-order delivery violated: earlier puts missing after final completion")
		}
	})
}

// TestConformanceCompletionExactlyOnce: N flagged operations produce
// exactly N local completions — no duplicates, no leftovers.
func TestConformanceCompletionExactlyOnce(t *testing.T) {
	forBoth(t, func(t *testing.T, k Kind) {
		r := newRig(t, k, cluster.Default(), ConnHint{})
		defer r.tb.Shutdown()
		const n = 4
		var extra bool
		done := r.tb.A.GPU.Launch(gpusim.KernelConfig{Blocks: 1}, func(w *gpusim.Warp) {
			for i := 0; i < n; i++ {
				r.a.DevPut(w, r.aR, 0, r.bR, 0, 64, FlagLocalComp)
			}
			for i := 0; i < n; i++ {
				r.a.DevWaitComplete(w, CompLocal)
			}
			_, extra = r.a.DevTryComplete(w, CompLocal)
		})
		r.tb.E.Run()
		mustDone(t, done, "exactly-once kernel")
		if extra {
			t.Fatal("reaped a fifth completion from four flagged puts")
		}
	})
}

// TestConformanceTimeoutSemantics: a bounded wait on an idle completion
// stream reports failure at (about) its deadline instead of blocking.
func TestConformanceTimeoutSemantics(t *testing.T) {
	forBoth(t, func(t *testing.T, k Kind) {
		r := newRig(t, k, cluster.Default(), ConnHint{})
		defer r.tb.Shutdown()
		var (
			ok   bool
			tEnd sim.Time
		)
		done := r.tb.A.GPU.Launch(gpusim.KernelConfig{Blocks: 1}, func(w *gpusim.Warp) {
			_, ok = r.a.DevWaitCompleteTimeout(w, CompLocal, 200*sim.Microsecond)
			tEnd = w.Now()
		})
		r.tb.E.Run()
		mustDone(t, done, "bounded wait kernel")
		if ok {
			t.Fatal("bounded wait claimed a completion from an idle endpoint")
		}
		if limit := sim.Time(0).Add(500 * sim.Microsecond); tEnd > limit {
			t.Fatalf("bounded wait returned at %v; deadline was 200us", tEnd)
		}
	})
}

// TestConformanceRemoteCompletion: a put flagged for remote completion is
// reaped at the destination with the payload size the fabric reported.
func TestConformanceRemoteCompletion(t *testing.T) {
	forBoth(t, func(t *testing.T, k Kind) {
		r := newRig(t, k, cluster.Default(), ConnHint{})
		defer r.tb.Shutdown()
		const size = 128
		var comp Completion
		bDone := sim.NewCompletion(r.tb.E)
		r.tb.E.Spawn("b.cpu", func(p *sim.Proc) {
			r.b.HostPrepostArrivals(p, 1)
			comp = r.b.HostWaitComplete(p, CompRemote)
			bDone.Complete()
		})
		aDone := sim.NewCompletion(r.tb.E)
		r.tb.E.Spawn("a.cpu", func(p *sim.Proc) {
			p.Sleep(10 * sim.Microsecond) // let B prepost first
			r.a.HostPut(p, r.aR, 0, r.bR, 0, size, FlagRemoteComp)
			aDone.Complete()
		})
		r.tb.E.Run()
		if !aDone.Done() || !bDone.Done() {
			t.Fatal("remote-completion procs did not finish")
		}
		if comp.Err || comp.Timeout {
			t.Fatalf("healthy arrival completed with %+v", comp)
		}
		if comp.Size != size {
			t.Fatalf("arrival completion size = %d, want %d", comp.Size, size)
		}
	})
}

func TestConformanceDevGetRoundTrip(t *testing.T) {
	forBoth(t, func(t *testing.T, k Kind) {
		r := newRig(t, k, cluster.Default(), ConnHint{})
		defer r.tb.Shutdown()
		payload := make([]byte, 1024)
		for i := range payload {
			payload[i] = byte(i*5 + 2)
		}
		if err := r.tb.B.GPU.HostWrite(r.bBuf, payload); err != nil {
			t.Fatal(err)
		}
		var first uint64
		done := r.tb.A.GPU.Launch(gpusim.KernelConfig{Blocks: 1}, func(w *gpusim.Warp) {
			r.a.DevGet(w, r.aR, 0, r.bR, 0, len(payload))
			// The contract: data is locally visible when DevGet returns.
			first = w.LdGlobalU64(r.aBuf)
		})
		r.tb.E.Run()
		mustDone(t, done, "get kernel")
		if want := binary.LittleEndian.Uint64(payload[:8]); first != want {
			t.Fatalf("DevGet returned before data landed: %#x != %#x", first, want)
		}
		got := make([]byte, len(payload))
		if err := r.tb.A.GPU.HostRead(r.aBuf, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("get payload corrupted")
		}
	})
}

func TestConformanceFetchAdd(t *testing.T) {
	forBoth(t, func(t *testing.T, k Kind) {
		r := newRig(t, k, cluster.Default(), ConnHint{Atomics: true})
		defer r.tb.Shutdown()
		seed := make([]byte, 8)
		binary.LittleEndian.PutUint64(seed, 100)
		if err := r.tb.B.GPU.HostWrite(r.bBuf, seed); err != nil {
			t.Fatal(err)
		}
		var old1, old2 uint64
		done := r.tb.A.GPU.Launch(gpusim.KernelConfig{Blocks: 1}, func(w *gpusim.Warp) {
			old1 = r.a.DevFetchAdd(w, 5, r.bR, 0)
			old2 = r.a.DevFetchAdd(w, 7, r.bR, 0)
		})
		r.tb.E.Run()
		mustDone(t, done, "fetch-add kernel")
		if old1 != 100 || old2 != 105 {
			t.Fatalf("fetch-add old values = %d, %d; want 100, 105", old1, old2)
		}
		got := make([]byte, 8)
		if err := r.tb.B.GPU.HostRead(r.bBuf, got); err != nil {
			t.Fatal(err)
		}
		if v := binary.LittleEndian.Uint64(got); v != 112 {
			t.Fatalf("counter = %d, want 112", v)
		}
	})
}

// TestConformanceSyncOpsBehindPut: a get or fetch-add posted while a
// signaled put is still outstanding on the same endpoint returns only
// after its own operation completed — the get's bytes have landed and
// the fetch-add hands back the remote word's old value — and each put's
// local completion is still reaped exactly once afterwards. Run from
// device and from host code.
func TestConformanceSyncOpsBehindPut(t *testing.T) {
	const (
		putSize = 64 << 10
		getOff  = 128 << 10 // get source on B, destination on A
		getSize = 4 << 10
		ctrOff  = 512 << 10 // fetch-add word on B
	)
	setup := func(t *testing.T, k Kind) (*rig, []byte) {
		r := newRig(t, k, cluster.Default(), ConnHint{Atomics: true})
		payload := make([]byte, getSize)
		for i := range payload {
			payload[i] = byte(i*11 + 5)
		}
		if err := r.tb.B.GPU.HostWrite(r.bBuf+getOff, payload); err != nil {
			t.Fatal(err)
		}
		var seed [8]byte
		binary.LittleEndian.PutUint64(seed[:], 41)
		if err := r.tb.B.GPU.HostWrite(r.bBuf+ctrOff, seed[:]); err != nil {
			t.Fatal(err)
		}
		return r, payload
	}
	type result struct {
		first, old uint64 // first get word seen on return; fetch-add result
		comps      []Completion
		extra      bool
	}
	check := func(t *testing.T, r *rig, payload []byte, res result) {
		t.Helper()
		if want := binary.LittleEndian.Uint64(payload); res.first != want {
			t.Fatalf("get behind a put returned before its data landed: %#x != %#x", res.first, want)
		}
		got := make([]byte, getSize)
		if err := r.tb.A.GPU.HostRead(r.aBuf+getOff, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("get behind a put read back wrong bytes")
		}
		if res.old != 41 {
			t.Fatalf("fetch-add behind a put returned old = %d, want 41", res.old)
		}
		for i, c := range res.comps {
			if c.Err || c.Timeout {
				t.Fatalf("put %d completed with %+v", i, c)
			}
		}
		if res.extra {
			t.Fatal("reaped a third local completion from two flagged puts")
		}
	}
	t.Run("device", func(t *testing.T) {
		forBoth(t, func(t *testing.T, k Kind) {
			r, payload := setup(t, k)
			defer r.tb.Shutdown()
			var res result
			done := r.tb.A.GPU.Launch(gpusim.KernelConfig{Blocks: 1}, func(w *gpusim.Warp) {
				r.a.DevPut(w, r.aR, 0, r.bR, 0, putSize, FlagLocalComp)
				r.a.DevGet(w, r.aR, getOff, r.bR, getOff, getSize)
				res.first = w.LdGlobalU64(r.aBuf + getOff)
				r.a.DevPut(w, r.aR, 0, r.bR, 0, putSize, FlagLocalComp)
				res.old = r.a.DevFetchAdd(w, 1, r.bR, ctrOff)
				for i := 0; i < 2; i++ {
					res.comps = append(res.comps, r.a.DevWaitComplete(w, CompLocal))
				}
				_, res.extra = r.a.DevTryComplete(w, CompLocal)
			})
			r.tb.E.Run()
			mustDone(t, done, "sync-ops-behind-put kernel")
			check(t, r, payload, res)
		})
	})
	t.Run("host", func(t *testing.T) {
		forBoth(t, func(t *testing.T, k Kind) {
			r, payload := setup(t, k)
			defer r.tb.Shutdown()
			var res result
			done := sim.NewCompletion(r.tb.E)
			r.tb.E.Spawn("a.cpu", func(p *sim.Proc) {
				r.a.HostPut(p, r.aR, 0, r.bR, 0, putSize, FlagLocalComp)
				r.a.HostGet(p, r.aR, getOff, r.bR, getOff, getSize)
				res.first = r.tb.A.CPU.ReadU64(p, r.aBuf+getOff)
				r.a.HostPut(p, r.aR, 0, r.bR, 0, putSize, FlagLocalComp)
				res.old = r.a.HostFetchAdd(p, 1, r.bR, ctrOff)
				for i := 0; i < 2; i++ {
					res.comps = append(res.comps, r.a.HostWaitComplete(p, CompLocal))
				}
				_, res.extra = r.a.HostTryComplete(p, CompLocal)
				done.Complete()
			})
			r.tb.E.Run()
			if !done.Done() {
				t.Fatal("sync-ops-behind-put proc did not finish")
			}
			check(t, r, payload, res)
		})
	})
}

func TestConformanceHostMirrors(t *testing.T) {
	forBoth(t, func(t *testing.T, k Kind) {
		r := newRig(t, k, cluster.Default(), ConnHint{Atomics: true})
		defer r.tb.Shutdown()
		payload := make([]byte, 256)
		for i := range payload {
			payload[i] = byte(i ^ 0x3c)
		}
		if err := r.tb.A.GPU.HostWrite(r.aBuf, payload); err != nil {
			t.Fatal(err)
		}
		var (
			comp Completion
			old  uint64
		)
		done := sim.NewCompletion(r.tb.E)
		r.tb.E.Spawn("a.cpu", func(p *sim.Proc) {
			r.a.HostPut(p, r.aR, 0, r.bR, 0, len(payload), FlagLocalComp)
			comp = r.a.HostWaitComplete(p, CompLocal)
			r.a.HostGet(p, r.aR, 4096, r.bR, 0, len(payload))
			old = r.a.HostFetchAdd(p, 1, r.bR, 512)
			done.Complete()
		})
		r.tb.E.Run()
		if !done.Done() {
			t.Fatal("host mirror proc did not finish")
		}
		if comp.Err || comp.Timeout {
			t.Fatalf("healthy host put completed with %+v", comp)
		}
		if old != 0 {
			t.Fatalf("host fetch-add old = %d, want 0", old)
		}
		got := make([]byte, len(payload))
		if err := r.tb.A.GPU.HostRead(r.aBuf+4096, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("host get read back wrong bytes after host put")
		}
	})
}

// TestConformanceFaultParity: on a dead wire (100% drop) each fabric's
// end-to-end failure signal must surface through the endpoint completion
// streams as Completion{Err: true, Timeout: true}. The tracked operation
// differs per fabric — EXTOLL puts are fire-and-forget at the requester
// (only gets and fetch-adds arm the response watchdog), while InfiniBand
// RC acks every signaled operation — so the test drives each fabric's
// tracked op and asserts the identical Completion mapping.
func TestConformanceFaultParity(t *testing.T) {
	forBoth(t, func(t *testing.T, k Kind) {
		p := cluster.Default()
		p.FaultInject = true
		p.FaultSeed = 3
		p.FaultDropRate = 1.0
		r := newRig(t, k, p, ConnHint{})
		defer r.tb.Shutdown()
		var (
			comp Completion
			ok   bool
		)
		done := sim.NewCompletion(r.tb.E)
		if k == KindExtoll {
			// Post the tracked get through the raw-WR escape hatch so its
			// timeout notification stays in the ring for the endpoint's
			// bounded completer wait to convert.
			ra := r.tr.(*Extoll).RMA(0)
			srcNLA, dstNLA := r.bR.NLA(), r.aR.NLA()
			r.tb.E.Spawn("a.cpu", func(p *sim.Proc) {
				ra.HostGet(p, 0, srcNLA, dstNLA, 64, extoll.FlagCompNotif)
				comp, ok = r.a.HostWaitCompleteTimeout(p, CompRemote, 5*sim.Millisecond)
				done.Complete()
			})
		} else {
			r.tb.E.Spawn("a.cpu", func(p *sim.Proc) {
				r.a.HostPut(p, r.aR, 0, r.bR, 0, 64, FlagLocalComp)
				comp, ok = r.a.HostWaitCompleteTimeout(p, CompLocal, 5*sim.Millisecond)
				done.Complete()
			})
		}
		r.tb.E.Run()
		if !done.Done() {
			t.Fatal("fault-parity proc did not finish")
		}
		if !ok {
			t.Fatal("no completion surfaced for an operation on a dead wire")
		}
		if !comp.Err || !comp.Timeout {
			t.Fatalf("dead-wire completion = %+v; want Err and Timeout set", comp)
		}
	})
}

// TestConformanceLostPutNoPhantomArrival: a put whose payload dies on the
// wire must never produce an arrival completion at the peer — the bounded
// remote wait unblocks empty-handed on both fabrics instead of hanging or
// inventing an event.
func TestConformanceLostPutNoPhantomArrival(t *testing.T) {
	forBoth(t, func(t *testing.T, k Kind) {
		p := cluster.Default()
		p.FaultInject = true
		p.FaultSeed = 5
		p.FaultDropRate = 1.0
		r := newRig(t, k, p, ConnHint{})
		defer r.tb.Shutdown()
		var ok bool
		done := sim.NewCompletion(r.tb.E)
		r.tb.E.Spawn("b.cpu", func(p *sim.Proc) {
			r.b.HostPrepostArrivals(p, 1)
			_, ok = r.b.HostWaitCompleteTimeout(p, CompRemote, 3*sim.Millisecond)
			done.Complete()
		})
		r.tb.E.Spawn("a.cpu", func(p *sim.Proc) {
			r.a.HostPut(p, r.aR, 0, r.bR, 0, 64, FlagRemoteComp)
		})
		r.tb.E.Run()
		if !done.Done() {
			t.Fatal("phantom-arrival waiter did not finish")
		}
		if ok {
			t.Fatal("peer reaped an arrival completion for a put that never crossed the wire")
		}
	})
}
