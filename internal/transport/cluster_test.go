package transport

// Cluster-path conformance: the same Endpoint contract must hold when
// the two endpoints sit on arbitrary nodes of an N-node switched fabric
// instead of the two ends of one cable.

import (
	"bytes"
	"encoding/binary"
	"testing"

	"putget/internal/cluster"
	"putget/internal/gpusim"
	"putget/internal/memspace"
	"putget/internal/topo"
)

func forBothClusters(t *testing.T, spec topo.Spec, n int, f func(t *testing.T, k Kind, cl *cluster.Cluster, tr Transport)) {
	for _, k := range []Kind{KindExtoll, KindIB} {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			fab := cluster.FabricExtoll
			if k == KindIB {
				fab = cluster.FabricIB
			}
			cl := cluster.NewClusterOn(fab, spec, n, cluster.Default())
			defer cl.Shutdown()
			f(t, k, cl, NewCluster(k, cl))
		})
	}
}

func TestClusterDevPutAcrossTorus(t *testing.T) {
	forBothClusters(t, topo.Spec{Kind: topo.Torus3D}, 8, func(t *testing.T, k Kind, cl *cluster.Cluster, tr Transport) {
		src, dst := cl.Node(1), cl.Node(6) // opposite corners of the 2x2x2 torus
		sBuf := src.AllocDev(rigBuf)
		dBuf := dst.AllocDev(rigBuf)
		sR := tr.Register(src, sBuf, rigBuf)
		dR := tr.Register(dst, dBuf, rigBuf)
		es, ed := tr.ConnectPair(src, dst, ConnHint{})
		if es.Node() != src || ed.Node() != dst {
			t.Fatal("ConnectPair endpoint order does not match arguments")
		}
		payload := make([]byte, 4096)
		for i := range payload {
			payload[i] = byte(i*13 + 5)
		}
		if err := src.GPU.HostWrite(sBuf, payload); err != nil {
			t.Fatal(err)
		}
		var comp Completion
		done := src.GPU.Launch(gpusim.KernelConfig{Blocks: 1}, func(w *gpusim.Warp) {
			es.DevPut(w, sR, 0, dR, 0, len(payload), FlagLocalComp)
			comp = es.DevWaitComplete(w, CompLocal)
		})
		cl.E.Run()
		if !done.Done() {
			t.Fatal("put kernel did not complete (deadlock?)")
		}
		if comp.Err || comp.Timeout {
			t.Fatalf("healthy put completed with %+v", comp)
		}
		got := make([]byte, len(payload))
		if err := dst.GPU.HostRead(dBuf, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("put payload corrupted crossing the torus")
		}
	})
}

// A get must round-trip the fabric both ways (request out, response
// back) even when the two directions take multi-hop routed paths.
func TestClusterDevGetAcrossFatTree(t *testing.T) {
	forBothClusters(t, topo.Spec{Kind: topo.FatTree}, 9, func(t *testing.T, k Kind, cl *cluster.Cluster, tr Transport) {
		// Radix derives to 3: nodes 0 and 8 sit on different leaves.
		loc, rem := cl.Node(0), cl.Node(8)
		lBuf := loc.AllocDev(rigBuf)
		rBuf := rem.AllocDev(rigBuf)
		lR := tr.Register(loc, lBuf, rigBuf)
		rR := tr.Register(rem, rBuf, rigBuf)
		el, _ := tr.ConnectPair(loc, rem, ConnHint{})
		payload := make([]byte, 2048)
		for i := range payload {
			payload[i] = byte(i*3 + 1)
		}
		if err := rem.GPU.HostWrite(rBuf, payload); err != nil {
			t.Fatal(err)
		}
		done := loc.GPU.Launch(gpusim.KernelConfig{Blocks: 1}, func(w *gpusim.Warp) {
			el.DevGet(w, lR, 0, rR, 0, len(payload))
		})
		cl.E.Run()
		if !done.Done() {
			t.Fatal("get kernel did not complete (deadlock?)")
		}
		got := make([]byte, len(payload))
		if err := loc.GPU.HostRead(lBuf, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("get payload corrupted crossing the fat-tree")
		}
	})
}

// Several connections from distinct nodes into one hot node must all
// work concurrently — per-node port/QPN allocation and routing-key
// binding must not collide.
func TestClusterManyToOne(t *testing.T) {
	forBothClusters(t, topo.Spec{Kind: topo.Torus3D}, 8, func(t *testing.T, k Kind, cl *cluster.Cluster, tr Transport) {
		hot := cl.Node(7)
		hBuf := hot.AllocDev(rigBuf)
		hR := tr.Register(hot, hBuf, rigBuf)
		senders := []int{0, 2, 5}
		kernels := 0
		for si, s := range senders {
			src := cl.Node(s)
			sBuf := src.AllocDev(4096)
			sR := tr.Register(src, sBuf, 4096)
			es, _ := tr.ConnectPair(src, hot, ConnHint{})
			fill := make([]byte, 512)
			for i := range fill {
				fill[i] = byte(s + 1)
			}
			if err := src.GPU.HostWrite(sBuf, fill); err != nil {
				t.Fatal(err)
			}
			off := uint64(si) * 512
			src.GPU.Launch(gpusim.KernelConfig{Blocks: 1}, func(w *gpusim.Warp) {
				es.DevPut(w, sR, 0, hR, off, 512, FlagLocalComp)
				es.DevWaitComplete(w, CompLocal)
			})
			kernels++
		}
		cl.E.Run()
		got := make([]byte, 512*len(senders))
		if err := hot.GPU.HostRead(hBuf, got); err != nil {
			t.Fatal(err)
		}
		for si, s := range senders {
			for i := 0; i < 512; i++ {
				if got[si*512+i] != byte(s+1) {
					t.Fatalf("sender %d slot corrupted at byte %d: %d", s, i, got[si*512+i])
				}
			}
		}
	})
}

// pairOutcome is every data result of pairProgram: what the destination
// saw when the flag landed, the fetch-add old values, and both nodes'
// final buffers.
type pairOutcome struct {
	flagSeenFirst, flagSeenLast uint64
	old1, old2                  uint64
	bufA, bufB                  []byte
}

// Buffer layout of pairProgram (offsets into each node's region).
const (
	bulkOff, bulkLen = 0, 8192
	flagOff          = 16384
	getSrcOff        = 20480
	getDstOff        = 24576
	getLen           = 1024
	ctrOff           = 32768
	pairBuf          = 65536
	flagValue        = 0xf1a6
)

// pairProgram runs one put/get program between nodes 0 and 1 of cl over
// a plain Connect: a fire-and-forget bulk put, an immediate flag put
// behind it that node 1 polls for, a get of node 1's seeded words and
// two fetch-adds on node 1's counter.
func pairProgram(t *testing.T, k Kind, cl *cluster.Cluster) pairOutcome {
	t.Helper()
	tr := NewCluster(k, cl)
	na, nb := cl.Node(0), cl.Node(1)
	aBuf, bBuf := na.AllocDev(pairBuf), nb.AllocDev(pairBuf)
	aR, bR := tr.Register(na, aBuf, pairBuf), tr.Register(nb, bBuf, pairBuf)
	ea, _ := tr.Connect(0, ConnHint{Atomics: true})

	bulk := make([]byte, bulkLen)
	for i := range bulk {
		bulk[i] = byte(i*29 + 3)
	}
	seed := make([]byte, getLen)
	for i := range seed {
		seed[i] = byte(i*7 + 1)
	}
	ctr := make([]byte, 8)
	binary.LittleEndian.PutUint64(ctr, 1000)
	for _, w := range []struct {
		n    *cluster.Node
		addr memspace.Addr
		data []byte
	}{{na, aBuf + bulkOff, bulk}, {nb, bBuf + getSrcOff, seed}, {nb, bBuf + ctrOff, ctr}} {
		if err := w.n.GPU.HostWrite(w.addr, w.data); err != nil {
			t.Fatal(err)
		}
	}

	var out pairOutcome
	doneA := na.GPU.Launch(gpusim.KernelConfig{Blocks: 1}, func(w *gpusim.Warp) {
		ea.DevPut(w, aR, bulkOff, bR, bulkOff, bulkLen, 0)
		ea.DevPutImm(w, flagValue, bR, flagOff, 8, FlagLocalComp)
		ea.DevWaitComplete(w, CompLocal)
		ea.DevGet(w, aR, getDstOff, bR, getSrcOff, getLen)
		out.old1 = ea.DevFetchAdd(w, 5, bR, ctrOff)
		out.old2 = ea.DevFetchAdd(w, 7, bR, ctrOff)
	})
	doneB := nb.GPU.Launch(gpusim.KernelConfig{Blocks: 1}, func(w *gpusim.Warp) {
		w.PollGlobalU64(bBuf+flagOff, flagValue)
		out.flagSeenFirst = w.LdGlobalU64(bBuf + bulkOff)
		out.flagSeenLast = w.LdGlobalU64(bBuf + bulkOff + bulkLen - 8)
	})
	cl.E.Run()
	mustDone(t, doneA, "node 0 kernel")
	mustDone(t, doneB, "node 1 kernel")
	out.bufA, out.bufB = make([]byte, pairBuf), make([]byte, pairBuf)
	if err := na.GPU.HostRead(aBuf, out.bufA); err != nil {
		t.Fatal(err)
	}
	if err := nb.GPU.HostRead(bBuf, out.bufB); err != nil {
		t.Fatal(err)
	}
	return out
}

// The pair testbed is a 2-node cluster over a direct cable; the same
// program over a 2-node switched fat-tree must reach identical data
// outcomes on both fabrics — only timing may differ.
func TestDirectAndSwitchedPairAgree(t *testing.T) {
	forBoth(t, func(t *testing.T, k Kind) {
		fab := cluster.FabricExtoll
		if k == KindIB {
			fab = cluster.FabricIB
		}
		var outs []pairOutcome
		for _, kind := range []topo.Kind{topo.Direct, topo.FatTree} {
			cl := cluster.NewClusterOn(fab, topo.Spec{Kind: kind}, 2, cluster.Default())
			outs = append(outs, pairProgram(t, k, cl))
			cl.Shutdown()
		}
		direct, switched := outs[0], outs[1]
		if !bytes.Equal(direct.bufA[:bulkLen], direct.bufB[:bulkLen]) {
			t.Fatal("bulk put did not land")
		}
		if direct.flagSeenFirst != binary.LittleEndian.Uint64(direct.bufB) ||
			direct.flagSeenLast != binary.LittleEndian.Uint64(direct.bufB[bulkLen-8:]) {
			t.Fatal("flag landed before the bulk data it follows")
		}
		if direct.old1 != 1000 || direct.old2 != 1005 {
			t.Fatalf("fetch-add old values %d, %d; want 1000, 1005", direct.old1, direct.old2)
		}
		if !bytes.Equal(direct.bufA[getDstOff:getDstOff+getLen], direct.bufB[getSrcOff:getSrcOff+getLen]) {
			t.Fatal("get did not copy node 1's words")
		}
		if direct.flagSeenFirst != switched.flagSeenFirst || direct.flagSeenLast != switched.flagSeenLast ||
			direct.old1 != switched.old1 || direct.old2 != switched.old2 {
			t.Fatalf("direct %+v and switched %+v disagree", direct, switched)
		}
		if !bytes.Equal(direct.bufA, switched.bufA) || !bytes.Equal(direct.bufB, switched.bufB) {
			t.Fatal("final buffers differ between the direct and the switched pair")
		}
	})
}

// retransmits sums both nodes' go-back-N resends on cl's fabric.
func retransmits(cl *cluster.Cluster) uint64 {
	var n uint64
	for i := 0; i < 2; i++ {
		if nd := cl.Node(i); nd.Extoll != nil {
			n += nd.Extoll.Stats().Retransmits
		} else {
			n += nd.IB.Stats().Retransmits
		}
	}
	return n
}

// Both fabrics deliver exactly once and in order through the same
// go-back-N core. Under loss and corruption the pair program must still
// reach the fault-free data outcome on each fabric, and the same outcome
// on both.
func TestLossyPairAgreesAcrossFabrics(t *testing.T) {
	lossy := cluster.Default()
	lossy.FaultInject, lossy.FaultSeed = true, 3
	lossy.FaultDropRate, lossy.FaultCorruptRate = 0.2, 0.05
	var outs []pairOutcome
	for _, k := range []Kind{KindExtoll, KindIB} {
		fab := cluster.FabricExtoll
		if k == KindIB {
			fab = cluster.FabricIB
		}
		for _, p := range []cluster.Params{cluster.Default(), lossy} {
			cl := cluster.NewClusterOn(fab, topo.Spec{Kind: topo.Direct}, 2, p)
			outs = append(outs, pairProgram(t, k, cl))
			if p.FaultInject && retransmits(cl) == 0 {
				t.Fatalf("%v: the lossy run never retransmitted", k)
			}
			cl.Shutdown()
		}
	}
	want := outs[0]
	if want.old1 != 1000 || want.old2 != 1005 || !bytes.Equal(want.bufA[:bulkLen], want.bufB[:bulkLen]) {
		t.Fatalf("fault-free EXTOLL run is wrong: fetch-adds %d, %d", want.old1, want.old2)
	}
	for i, got := range outs[1:] {
		name := []string{"lossy EXTOLL", "fault-free IB", "lossy IB"}[i]
		if got.flagSeenFirst != want.flagSeenFirst || got.flagSeenLast != want.flagSeenLast ||
			got.old1 != want.old1 || got.old2 != want.old2 ||
			!bytes.Equal(got.bufA, want.bufA) || !bytes.Equal(got.bufB, want.bufB) {
			t.Fatalf("%s outcome differs from the fault-free EXTOLL run", name)
		}
	}
}
