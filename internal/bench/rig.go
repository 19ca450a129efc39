package bench

import (
	"fmt"

	"putget/internal/cluster"
	"putget/internal/core"
	"putget/internal/extoll"
	"putget/internal/ibsim"
	"putget/internal/memspace"
	"putget/internal/sim"
	"putget/internal/transport"
)

// rig is a two-node testbed of either fabric with ping/pong buffers in GPU
// memory on both sides, registered with the fabric's address-translation
// machinery. Connections are opened per benchmark through rig.tr (modes
// need different ring hints).
type rig struct {
	tr transport.Transport
	tb *cluster.Testbed

	aSend, aRecv memspace.Addr // on GPU A
	bSend, bRecv memspace.Addr // on GPU B

	aSendR, aRecvR transport.Region // registered at A
	bSendR, bRecvR transport.Region // registered at B
}

// fitParams shrinks the simulated memories to what an experiment needs:
// testbeds are rebuilt per measurement and Go would otherwise touch
// hundreds of megabytes of zeroed pages per point.
func fitParams(p cluster.Params, bufBytes uint64) cluster.Params {
	if need := 2*bufBytes + (64 << 20); p.GPUDevMemSize > need {
		p.GPUDevMemSize = need
	}
	if need := uint64(96 << 20); p.HostRAMSize > need {
		p.HostRAMSize = need
	}
	return p
}

// newRig builds the testbed and transport for a fabric kind and registers
// the four data buffers. The allocation order (four AllocDev calls, then
// four registrations) is load-bearing: buffer addresses feed the GPU's L2
// set mapping, so reordering would shift the counter tables.
func newRig(k transport.Kind, p cluster.Params, bufSize uint64) *rig {
	var tb *cluster.Testbed
	if k == transport.KindExtoll {
		tb = cluster.NewExtollPair(fitParams(p, bufSize))
	} else {
		tb = cluster.NewIBPair(fitParams(p, bufSize))
	}
	tr := transport.New(k, tb)
	r := &rig{tr: tr, tb: tb}
	r.aSend = tb.A.AllocDev(bufSize)
	r.aRecv = tb.A.AllocDev(bufSize)
	r.bSend = tb.B.AllocDev(bufSize)
	r.bRecv = tb.B.AllocDev(bufSize)
	r.aSendR = tr.Register(tb.A, r.aSend, bufSize)
	r.aRecvR = tr.Register(tb.A, r.aRecv, bufSize)
	r.bSendR = tr.Register(tb.B, r.bSend, bufSize)
	r.bRecvR = tr.Register(tb.B, r.bRecv, bufSize)
	return r
}

// fillPayload initializes both send buffers with a deterministic pattern.
// The patterns are fabric-specific (and predate the unified harness), so
// a cross-fabric delivery bug cannot silently pass the byte verifies.
func (r *rig) fillPayload(size int) []byte {
	payload := make([]byte, size)
	for i := range payload {
		if r.tr.Kind() == transport.KindExtoll {
			payload[i] = byte(i*31 + 7)
		} else {
			payload[i] = byte(i*13 + 5)
		}
	}
	mustWrite(r.tb.A.GPU.HostWrite(r.aSend, payload))
	mustWrite(r.tb.B.GPU.HostWrite(r.bSend, payload))
	return payload
}

func mustWrite(err error) {
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
}

// faultHorizon is the virtual-time slice a harness run under fault
// injection advances between dead-link checks.
const faultHorizon = 100 * sim.Millisecond

// runTestbed drives tb's engine until it goes quiet. Under fault injection
// it runs in faultHorizon slices and gives up once an EXTOLL link has been
// declared dead: a dead link transmits nothing, so a kernel polling for a
// delivery over it would spin forever; cut off, it fails mustDone with a
// deadlock error instead. (An IB QP that runs out of retries flushes its
// work requests with error completions, so such runs end by themselves.)
// Each testbed is run once, so where the clock stops after the last
// event does not matter.
func runTestbed(tb *cluster.Testbed) {
	if tb.FaultsAB == nil {
		tb.E.Run()
		return
	}
	for tb.E.Pending() > 0 && relCounters(tb).LinkDowns == 0 {
		tb.E.RunUntil(tb.E.Now().Add(faultHorizon))
	}
}

func mustDone(c *sim.Completion, what string) {
	if !c.Done() {
		panic("bench: deadlock: " + what + " did not complete")
	}
}

// seqMask returns the comparison mask for a size-byte sequence stamp.
func seqMask(size int) uint64 {
	if size >= 8 {
		return ^uint64(0)
	}
	return (uint64(1) << (8 * uint(size))) - 1
}

// stampOff returns the in-buffer offset of the 8-byte stamp word for a
// message of the given size (the last full word, or 0 for tiny messages).
func stampOff(size int) int {
	if size >= 8 {
		return size - 8
	}
	return 0
}

// ---- raw-API rigs ----
//
// The cost-model experiments (staged breakdowns, claim checks, ablations)
// deliberately reach below the Endpoint API to meter individual steps of
// the control path; these rigs extend the generic one with each fabric's
// raw handles.

// extollRig adds the RMA bindings and registered NLAs of the four buffers.
type extollRig struct {
	rig
	ra, rb *core.RMA

	aSendN, aRecvN extoll.NLA // registered at A
	bSendN, bRecvN extoll.NLA // registered at B
}

func newExtollRig(p cluster.Params, bufSize uint64) *extollRig {
	base := newRig(transport.KindExtoll, p, bufSize)
	t := base.tr.(*transport.Extoll)
	return &extollRig{
		rig: *base,
		ra:  t.RMA(0), rb: t.RMA(1),
		aSendN: base.aSendR.NLA(), aRecvN: base.aRecvR.NLA(),
		bSendN: base.bSendR.NLA(), bRecvN: base.bRecvR.NLA(),
	}
}

// openPorts opens and connects ports 0..n-1 pairwise.
func (r *extollRig) openPorts(n int) {
	for i := 0; i < n; i++ {
		r.tr.Connect(i, transport.ConnHint{})
	}
}

// ibRig adds the Verbs bindings and memory regions of the four buffers.
type ibRig struct {
	rig
	va, vb *core.Verbs

	aSendMR, aRecvMR *ibsim.MR // registered at A
	bSendMR, bRecvMR *ibsim.MR // registered at B
}

func newIBRig(p cluster.Params, bufSize uint64) *ibRig {
	base := newRig(transport.KindIB, p, bufSize)
	t := base.tr.(*transport.Verbs)
	return &ibRig{
		rig: *base,
		va:  t.Verbs(0), vb: t.Verbs(1),
		aSendMR: base.aSendR.MR(), aRecvMR: base.aRecvR.MR(),
		bSendMR: base.bSendR.MR(), bRecvMR: base.bRecvR.MR(),
	}
}

// pingWQE builds A's ping descriptor.
func (r *ibRig) pingWQE(size int, flags int, wrid uint64) ibsim.WQE {
	return ibsim.WQE{
		Opcode: ibsim.OpRDMAWrite, Flags: flags, WRID: wrid,
		LAddr: uint64(r.aSend), LKey: r.aSendMR.LKey, Length: size,
		RAddr: uint64(r.bRecv), RKey: r.bRecvMR.RKey,
	}
}

// pongWQE builds B's pong descriptor.
func (r *ibRig) pongWQE(size int, flags int, wrid uint64) ibsim.WQE {
	return ibsim.WQE{
		Opcode: ibsim.OpRDMAWrite, Flags: flags, WRID: wrid,
		LAddr: uint64(r.bSend), LKey: r.bSendMR.LKey, Length: size,
		RAddr: uint64(r.aRecv), RKey: r.aRecvMR.RKey,
	}
}
