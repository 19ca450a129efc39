package ibsim

import (
	"bytes"
	"fmt"
	"testing"

	"putget/internal/memspace"
	"putget/internal/pcie"
	"putget/internal/sim"
	"putget/internal/wire"
)

type node struct {
	f    *pcie.Fabric
	hca  *HCA
	cpu  *pcie.Endpoint
	host memspace.Region
}

type rig struct {
	e      *sim.Engine
	a, b   *node
	ab, ba *wire.Link[Packet]
}

func hcaConfig(name string) Config {
	return Config{
		Name:          name,
		BARBase:       0x3000_0000,
		WQEFetchBatch: 8,
		ProcessTime:   100 * sim.Nanosecond,
		RxProcessTime: 100 * sim.Nanosecond,
		DMAContexts:   16,
		PCIe: pcie.EndpointConfig{
			EgressRate: 6e9, OneWay: 150 * sim.Nanosecond, ReadLatency: 100 * sim.Nanosecond,
		},
	}
}

func newNode(e *sim.Engine, name string, rel *RelConfig) *node {
	space := memspace.NewSpace()
	host := space.MustMap(0, memspace.NewRAM(name+".host", 4<<20))
	f := pcie.NewFabric(e, space)
	hostEP := f.AddEndpoint(name+".hostmem", pcie.EndpointConfig{
		EgressRate: 8e9, OneWay: 100 * sim.Nanosecond, ReadLatency: 150 * sim.Nanosecond,
	})
	f.ClaimRAM(hostEP, host)
	cpu := f.AddEndpoint(name+".cpu", pcie.EndpointConfig{
		EgressRate: 16e9, OneWay: 100 * sim.Nanosecond, ReadLatency: 100 * sim.Nanosecond,
	})
	cfg := hcaConfig(name + ".hca")
	cfg.Rel = rel
	hca := New(e, f, cfg)
	return &node{f: f, hca: hca, cpu: cpu, host: host}
}

// queue memory layout inside host RAM for tests.
const (
	sqBase   = 0x10_0000
	rqBase   = 0x11_0000
	sendCQAt = 0x12_0000
	recvCQAt = 0x13_0000
	dataAt   = 0x20_0000
)

func newRig(t *testing.T) (*rig, *QP, *QP) {
	t.Helper()
	return newRigRel(t, nil)
}

// newRigRel builds the two-node rig with the RC reliability protocol
// configured by rel (nil: the perfect-wire fast path).
func newRigRel(t *testing.T, rel *RelConfig) (*rig, *QP, *QP) {
	t.Helper()
	e := sim.NewEngine()
	a := newNode(e, "a", rel)
	b := newNode(e, "b", rel)
	ab, ba := wire.NewDuplex[Packet](e, 6.8e9, 450*sim.Nanosecond)
	a.hca.AttachWire(ab, ba)
	b.hca.AttachWire(ba, ab)
	qa := a.hca.CreateQP(sqBase, 64, rqBase, 64, a.hca.CreateCQ(sendCQAt, 64), a.hca.CreateCQ(recvCQAt, 64))
	qb := b.hca.CreateQP(sqBase, 64, rqBase, 64, b.hca.CreateCQ(sendCQAt, 64), b.hca.CreateCQ(recvCQAt, 64))
	ConnectQPs(qa, qb)
	return &rig{e: e, a: a, b: b, ab: ab, ba: ba}, qa, qb
}

// postSend writes a WQE into the SQ ring (zero-time, host-driver style)
// and rings the doorbell from the CPU endpoint.
func postSend(t *testing.T, n *node, qp *QP, idx int, w WQE) {
	t.Helper()
	buf := make([]byte, WQEBytes)
	EncodeWQE(w, buf)
	if err := n.f.Space().Write(qp.SQSlotAddr(idx), buf); err != nil {
		t.Fatal(err)
	}
	db := make([]byte, 8)
	v := uint64(qp.QPN)<<32 | uint64(idx+1)
	for i := 0; i < 8; i++ {
		db[i] = byte(v >> (8 * uint(i)))
	}
	n.f.PostedWrite(n.cpu, n.hca.DoorbellSQAddr(), db)
}

func postRecv(t *testing.T, n *node, qp *QP, idx int, w RecvWQE) {
	t.Helper()
	buf := make([]byte, RecvWQEBytes)
	EncodeRecvWQE(w, buf)
	if err := n.f.Space().Write(qp.RQSlotAddr(idx), buf); err != nil {
		t.Fatal(err)
	}
	db := make([]byte, 8)
	v := uint64(qp.QPN)<<32 | uint64(idx+1) | 0
	for i := 0; i < 8; i++ {
		db[i] = byte(v >> (8 * uint(i)))
	}
	n.f.PostedWrite(n.cpu, n.hca.DoorbellRQAddr(), db)
}

func TestWQEEncodeDecodeRoundTrip(t *testing.T) {
	in := WQE{Opcode: OpRDMAWrite, Flags: FlagSignaled, WRID: 42, LAddr: 0x1000,
		LKey: 7, Length: 512, RAddr: 0x2000, RKey: 9, Imm: 0xbeef}
	buf := make([]byte, WQEBytes)
	EncodeWQE(in, buf)
	out, err := DecodeWQE(buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Opcode != in.Opcode || out.Flags != in.Flags || out.WRID != in.WRID ||
		out.LAddr != in.LAddr || out.LKey != in.LKey || out.Length != in.Length ||
		out.RAddr != in.RAddr || out.RKey != in.RKey || out.Imm != in.Imm {
		t.Fatalf("%+v != %+v", out, in)
	}
}

func TestWQEUnstampedRejected(t *testing.T) {
	buf := make([]byte, WQEBytes)
	if _, err := DecodeWQE(buf); err == nil {
		t.Fatal("unstamped WQE accepted")
	}
}

func TestCQEEncodeDecodeRoundTrip(t *testing.T) {
	in := CQE{Valid: true, Opcode: OpSend, WRID: 99, ByteLen: 64, Imm: 5, QPN: 3, Status: StatusOK}
	buf := make([]byte, CQEBytes)
	EncodeCQE(in, buf)
	out := DecodeCQE(buf)
	if out != in {
		t.Fatalf("%+v != %+v", out, in)
	}
}

func TestRDMAWriteMovesData(t *testing.T) {
	r, qa, _ := newRig(t)
	srcMR := r.a.hca.RegMR(dataAt, 64<<10)
	dstMR := r.b.hca.RegMR(dataAt, 64<<10)
	payload := make([]byte, 2048)
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	if err := r.a.f.Space().Write(dataAt, payload); err != nil {
		t.Fatal(err)
	}
	postSend(t, r.a, qa, 0, WQE{
		Opcode: OpRDMAWrite, Flags: FlagSignaled, WRID: 1,
		LAddr: dataAt, LKey: srcMR.LKey, Length: len(payload),
		RAddr: dataAt, RKey: dstMR.RKey,
	})
	r.e.Run()
	got := make([]byte, len(payload))
	if err := r.b.f.Space().Read(dataAt, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted")
	}
	// Signaled: send CQE at A.
	cqeBuf := make([]byte, CQEBytes)
	if err := r.a.f.Space().Read(qa.SendCQ.EntryAddr(0), cqeBuf); err != nil {
		t.Fatal(err)
	}
	cqe := DecodeCQE(cqeBuf)
	if !cqe.Valid || cqe.WRID != 1 || cqe.Status != StatusOK {
		t.Fatalf("send CQE = %+v", cqe)
	}
}

func TestUnsignaledWriteNoCQE(t *testing.T) {
	r, qa, _ := newRig(t)
	srcMR := r.a.hca.RegMR(dataAt, 4096)
	dstMR := r.b.hca.RegMR(dataAt, 4096)
	postSend(t, r.a, qa, 0, WQE{
		Opcode: OpRDMAWrite, WRID: 1, LAddr: dataAt, LKey: srcMR.LKey,
		Length: 64, RAddr: dataAt, RKey: dstMR.RKey,
	})
	r.e.Run()
	if r.a.hca.Stats().CQEsWritten != 0 {
		t.Fatal("unsignaled write produced a CQE")
	}
	if r.b.hca.Stats().PacketsRx != 1 {
		t.Fatal("packet not received")
	}
}

func TestWriteWithImmediateCompletesReceiver(t *testing.T) {
	r, qa, qb := newRig(t)
	srcMR := r.a.hca.RegMR(dataAt, 4096)
	dstMR := r.b.hca.RegMR(dataAt, 4096)
	// Receive WQE with zero address — legal for write-with-imm.
	postRecv(t, r.b, qb, 0, RecvWQE{WRID: 77})
	postSend(t, r.a, qa, 0, WQE{
		Opcode: OpRDMAWriteImm, Flags: FlagSignaled, WRID: 2, Imm: 0xfeed,
		LAddr: dataAt, LKey: srcMR.LKey, Length: 256, RAddr: dataAt, RKey: dstMR.RKey,
	})
	r.e.Run()
	cqeBuf := make([]byte, CQEBytes)
	if err := r.b.f.Space().Read(qb.RecvCQ.EntryAddr(0), cqeBuf); err != nil {
		t.Fatal(err)
	}
	cqe := DecodeCQE(cqeBuf)
	if !cqe.Valid || cqe.WRID != 77 || cqe.Imm != 0xfeed || cqe.ByteLen != 256 {
		t.Fatalf("recv CQE = %+v", cqe)
	}
}

func TestSendLandsAtRecvAddress(t *testing.T) {
	r, qa, qb := newRig(t)
	srcMR := r.a.hca.RegMR(dataAt, 4096)
	dstMR := r.b.hca.RegMR(dataAt, 4096)
	payload := []byte("two-sided send payload")
	if err := r.a.f.Space().Write(dataAt, payload); err != nil {
		t.Fatal(err)
	}
	postRecv(t, r.b, qb, 0, RecvWQE{WRID: 5, Addr: dataAt + 512, LKey: dstMR.LKey})
	postSend(t, r.a, qa, 0, WQE{
		Opcode: OpSend, Flags: FlagSignaled, WRID: 6,
		LAddr: dataAt, LKey: srcMR.LKey, Length: len(payload),
	})
	r.e.Run()
	got := make([]byte, len(payload))
	if err := r.b.f.Space().Read(dataAt+512, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("send payload = %q", got)
	}
}

func TestSendWithoutRecvDropsRNR(t *testing.T) {
	r, qa, _ := newRig(t)
	srcMR := r.a.hca.RegMR(dataAt, 4096)
	postSend(t, r.a, qa, 0, WQE{
		Opcode: OpSend, WRID: 6, LAddr: dataAt, LKey: srcMR.LKey, Length: 64,
	})
	r.e.Run()
	if r.b.hca.Stats().RNRDrops != 1 {
		t.Fatalf("RNR drops = %d, want 1", r.b.hca.Stats().RNRDrops)
	}
}

func TestBadRKeyProtectionError(t *testing.T) {
	r, qa, _ := newRig(t)
	srcMR := r.a.hca.RegMR(dataAt, 4096)
	postSend(t, r.a, qa, 0, WQE{
		Opcode: OpRDMAWrite, WRID: 1, LAddr: dataAt, LKey: srcMR.LKey,
		Length: 64, RAddr: dataAt, RKey: 0xdead,
	})
	r.e.Run()
	if r.b.hca.Stats().ProtectionErrs != 1 {
		t.Fatalf("protection errors = %d, want 1", r.b.hca.Stats().ProtectionErrs)
	}
}

func TestBadLKeyErrorCQE(t *testing.T) {
	r, qa, _ := newRig(t)
	r.b.hca.RegMR(dataAt, 4096)
	postSend(t, r.a, qa, 0, WQE{
		Opcode: OpRDMAWrite, WRID: 9, LAddr: dataAt, LKey: 0xbad,
		Length: 64, RAddr: dataAt, RKey: 1001,
	})
	r.e.Run()
	cqeBuf := make([]byte, CQEBytes)
	if err := r.a.f.Space().Read(qa.SendCQ.EntryAddr(0), cqeBuf); err != nil {
		t.Fatal(err)
	}
	cqe := DecodeCQE(cqeBuf)
	if !cqe.Valid || cqe.Status != StatusErr || cqe.WRID != 9 {
		t.Fatalf("error CQE = %+v", cqe)
	}
	if r.b.hca.Stats().PacketsRx != 0 {
		t.Fatal("bad-lkey packet still transmitted")
	}
}

func TestInOrderDelivery(t *testing.T) {
	r, qa, _ := newRig(t)
	srcMR := r.a.hca.RegMR(dataAt, 1<<20)
	dstMR := r.b.hca.RegMR(dataAt, 1<<20)
	// Post a large write then a small flag write; the flag must land after
	// the payload (RC ordering), which device-memory polling depends on.
	big := make([]byte, 256<<10)
	for i := range big {
		big[i] = 0xaa
	}
	if err := r.a.f.Space().Write(dataAt, big); err != nil {
		t.Fatal(err)
	}
	if err := r.a.f.Space().WriteU64(memspace.Addr(dataAt+uint64(len(big))), 0x11ff); err != nil {
		t.Fatal(err)
	}
	postSend(t, r.a, qa, 0, WQE{
		Opcode: OpRDMAWrite, WRID: 1, LAddr: dataAt, LKey: srcMR.LKey,
		Length: len(big), RAddr: dataAt, RKey: dstMR.RKey,
	})
	postSend(t, r.a, qa, 1, WQE{
		Opcode: OpRDMAWrite, WRID: 2, LAddr: dataAt + uint64(len(big)), LKey: srcMR.LKey,
		Length: 8, RAddr: dataAt + uint64(len(big)), RKey: dstMR.RKey,
	})
	// Poll the flag on B; when it appears, the payload must be complete.
	ok := false
	r.e.Spawn("poll", func(p *sim.Proc) {
		for {
			v, _ := r.b.f.Space().ReadU64(memspace.Addr(dataAt + uint64(len(big))))
			if v == 0x11ff {
				lastBuf := make([]byte, 1)
				r.b.f.Space().Read(memspace.Addr(dataAt+uint64(len(big))-1), lastBuf)
				ok = lastBuf[0] == 0xaa
				return
			}
			p.Sleep(100 * sim.Nanosecond)
		}
	})
	r.e.Run()
	if !ok {
		t.Fatal("flag overtook payload — RC ordering violated")
	}
}

func TestManyWQEsAllExecuteAcrossWrap(t *testing.T) {
	r, qa, _ := newRig(t)
	srcMR := r.a.hca.RegMR(dataAt, 1<<20)
	dstMR := r.b.hca.RegMR(dataAt, 1<<20)
	const N = 200 // > SQEntries(64): exercises ring wrap and batching
	for i := 0; i < N; i++ {
		postSend(t, r.a, qa, i, WQE{
			Opcode: OpRDMAWrite, WRID: uint64(i), LAddr: dataAt, LKey: srcMR.LKey,
			Length: 64, RAddr: dataAt + uint64(64*(i%1024)), RKey: dstMR.RKey,
		})
		// Run a bit so the hardware drains the ring before it wraps over
		// unconsumed slots.
		if i%32 == 31 {
			r.e.RunUntil(r.e.Now() + sim.Time(50*sim.Microsecond))
		}
	}
	r.e.Run()
	if got := r.b.hca.Stats().PacketsRx; got != N {
		t.Fatalf("received %d of %d packets", got, N)
	}
	if got := r.a.hca.Stats().WQEsExecuted; got != N {
		t.Fatalf("executed %d of %d WQEs", got, N)
	}
}

func TestCQOverflowCounted(t *testing.T) {
	r, qa, qb := newRig(t)
	srcMR := r.a.hca.RegMR(dataAt, 1<<20)
	dstMR := r.b.hca.RegMR(dataAt, 1<<20)
	_ = qb
	// 80 signaled writes into a 64-entry CQ that nobody drains.
	for i := 0; i < 80; i++ {
		postSend(t, r.a, qa, i, WQE{
			Opcode: OpRDMAWrite, Flags: FlagSignaled, WRID: uint64(i),
			LAddr: dataAt, LKey: srcMR.LKey, Length: 8, RAddr: dataAt, RKey: dstMR.RKey,
		})
		if i%16 == 15 {
			r.e.RunUntil(r.e.Now() + sim.Time(50*sim.Microsecond))
		}
	}
	r.e.Run()
	st := r.a.hca.Stats()
	if st.CQOverflows == 0 {
		t.Fatal("CQ overflow not detected")
	}
	if st.CQEsWritten+st.CQOverflows != 80 {
		t.Fatalf("CQEs %d + overflows %d != 80", st.CQEsWritten, st.CQOverflows)
	}
}

func TestQPParallelismSpeedsUpManySmallWrites(t *testing.T) {
	// 8 QPs posting 16 writes each should finish much faster than one QP
	// posting 128 (per-QP engines work in parallel).
	run := func(nQPs, perQP int) sim.Duration {
		e := sim.NewEngine()
		a := newNode(e, "a", nil)
		b := newNode(e, "b", nil)
		ab, ba := wire.NewDuplex[Packet](e, 6.8e9, 450*sim.Nanosecond)
		a.hca.AttachWire(ab, ba)
		b.hca.AttachWire(ba, ab)
		srcMR := a.hca.RegMR(dataAt, 1<<20)
		dstMR := b.hca.RegMR(dataAt, 1<<20)
		for q := 0; q < nQPs; q++ {
			sq := memspace.Addr(sqBase + q*0x1000)
			rq := memspace.Addr(rqBase + q*0x1000)
			scq := a.hca.CreateCQ(memspace.Addr(sendCQAt+q*0x1000), 256)
			rcq := a.hca.CreateCQ(memspace.Addr(recvCQAt+q*0x1000), 256)
			qa := a.hca.CreateQP(sq, 256, rq, 256, scq, rcq)
			qbq := b.hca.CreateQP(sq, 256, rq, 256,
				b.hca.CreateCQ(memspace.Addr(sendCQAt+q*0x1000), 256),
				b.hca.CreateCQ(memspace.Addr(recvCQAt+q*0x1000), 256))
			ConnectQPs(qa, qbq)
			for i := 0; i < perQP; i++ {
				buf := make([]byte, WQEBytes)
				EncodeWQE(WQE{
					Opcode: OpRDMAWrite, WRID: uint64(i), LAddr: dataAt, LKey: srcMR.LKey,
					Length: 64, RAddr: dataAt, RKey: dstMR.RKey,
				}, buf)
				if err := a.f.Space().Write(qa.SQSlotAddr(i), buf); err != nil {
					panic(err)
				}
			}
			db := make([]byte, 8)
			v := uint64(qa.QPN)<<32 | uint64(perQP)
			for i := 0; i < 8; i++ {
				db[i] = byte(v >> (8 * uint(i)))
			}
			a.f.PostedWrite(a.cpu, a.hca.DoorbellSQAddr(), db)
		}
		e.Run()
		if got := b.hca.Stats().PacketsRx; got != uint64(nQPs*perQP) {
			panic(fmt.Sprintf("rx %d want %d", got, nQPs*perQP))
		}
		return sim.Duration(e.Now())
	}
	serial := run(1, 128)
	parallel := run(8, 16)
	if parallel >= serial {
		t.Fatalf("8 QPs (%v) not faster than 1 QP (%v)", parallel, serial)
	}
}

func TestRDMAReadFetchesRemote(t *testing.T) {
	r, qa, _ := newRig(t)
	locMR := r.a.hca.RegMR(dataAt, 64<<10)
	remMR := r.b.hca.RegMR(dataAt, 64<<10)
	payload := []byte("one-sided remote read payload!")
	if err := r.b.f.Space().Write(dataAt+1024, payload); err != nil {
		t.Fatal(err)
	}
	postSend(t, r.a, qa, 0, WQE{
		Opcode: OpRDMARead, Flags: FlagSignaled, WRID: 11,
		LAddr: dataAt + 4096, LKey: locMR.LKey, Length: len(payload),
		RAddr: dataAt + 1024, RKey: remMR.RKey,
	})
	r.e.Run()
	got := make([]byte, len(payload))
	if err := r.a.f.Space().Read(dataAt+4096, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("read returned %q", got)
	}
	// Completion arrives only after the response landed.
	cqeBuf := make([]byte, CQEBytes)
	if err := r.a.f.Space().Read(qa.SendCQ.EntryAddr(0), cqeBuf); err != nil {
		t.Fatal(err)
	}
	cqe := DecodeCQE(cqeBuf)
	if !cqe.Valid || cqe.Opcode != OpRDMARead || cqe.WRID != 11 || cqe.ByteLen != len(payload) {
		t.Fatalf("read CQE = %+v", cqe)
	}
	if r.b.hca.Stats().ReadsServed != 1 {
		t.Fatal("responder did not count the read")
	}
}

// TestRDMAReadBadRKey: a read the responder refuses for its rkey
// completes with IBV_WC_REM_ACCESS_ERR and moves the QP to ERR, with and
// without the reliability protocol — it must neither hang nor end in
// StatusRetryExc.
func TestRDMAReadBadRKey(t *testing.T) {
	testRemoteAccessErr(t, WQE{
		Opcode: OpRDMARead, Flags: FlagSignaled, WRID: 12,
		LAddr: dataAt, Length: 64, RAddr: dataAt, RKey: 0xbad,
	})
}

// TestAtomicBadRKey is TestRDMAReadBadRKey for a fetch-and-add.
func TestAtomicBadRKey(t *testing.T) {
	testRemoteAccessErr(t, WQE{
		Opcode: OpAtomicFAdd, Flags: FlagSignaled, WRID: 14,
		LAddr: dataAt, Length: 8, RAddr: dataAt, RKey: 0xbad, Add: 5,
	})
}

// dropFirst is a wire fault injector that loses the first packet it
// judges and records the wire size of every packet.
type dropFirst struct{ sizes []int }

func (d *dropFirst) Judge(_ sim.Time, wireBytes int) (drop, corrupt bool, extraDelay sim.Duration) {
	d.sizes = append(d.sizes, wireBytes)
	return len(d.sizes) == 1, false, 0
}

// testRemoteAccessErr posts w, whose rkey the responder refuses, and
// requires a StatusRemAccessErr CQE and a QP in ERR: on a perfect wire,
// under reliability, and under reliability with the first NAK lost, so
// the requester retransmits and the responder answers the duplicate
// with a header-only NAK again.
func testRemoteAccessErr(t *testing.T, w WQE) {
	for _, c := range []struct {
		name    string
		rel     *RelConfig
		dropNAK bool
	}{{"plain", nil, false}, {"reliable", DefaultRelConfig(), false}, {"reliable-lost-nak", DefaultRelConfig(), true}} {
		t.Run(c.name, func(t *testing.T) {
			r, qa, _ := newRigRel(t, c.rel)
			var inj dropFirst
			if c.dropNAK {
				r.ba.SetFaults(&inj, nil)
			}
			w.LKey = r.a.hca.RegMR(dataAt, 4096).LKey
			r.b.hca.RegMR(dataAt, 4096)
			postSend(t, r.a, qa, 0, w)
			r.e.RunUntil(sim.Time(sim.Millisecond))
			if c.dropNAK {
				if len(inj.sizes) != 2 || inj.sizes[0] != PktHeader || inj.sizes[1] != PktHeader {
					t.Fatalf("responder sent packets of %v wire bytes, want a NAK and its replay of %d each", inj.sizes, PktHeader)
				}
			}
			want := uint64(1)
			if c.dropNAK && w.Opcode == OpRDMARead {
				want = 2 // a duplicate read is re-served, so its rkey is checked again
			}
			if got := r.b.hca.Stats().ProtectionErrs; got != want {
				t.Fatalf("responder counted %d protection errors, want %d", got, want)
			}
			cqeBuf := make([]byte, CQEBytes)
			if err := r.a.f.Space().Read(qa.SendCQ.EntryAddr(0), cqeBuf); err != nil {
				t.Fatal(err)
			}
			cqe := DecodeCQE(cqeBuf)
			if !cqe.Valid || cqe.Opcode != w.Opcode || cqe.WRID != w.WRID || cqe.Status != StatusRemAccessErr {
				t.Fatalf("CQE = %+v, want opcode %d WRID %d status %d", cqe, w.Opcode, w.WRID, StatusRemAccessErr)
			}
			if qa.State() != StateErr {
				t.Fatalf("requester QP in %v, want ERR", qa.State())
			}
			if st := r.a.hca.Stats(); st.RetryExhausted != 0 {
				t.Fatalf("requester exhausted retries: %+v", st)
			}
		})
	}
}

func TestInlineSendSkipsPayloadDMA(t *testing.T) {
	r, qa, _ := newRig(t)
	dstMR := r.b.hca.RegMR(dataAt, 4096)
	inline := []byte{9, 8, 7, 6, 5, 4, 3, 2}
	postSend(t, r.a, qa, 0, WQE{
		Opcode: OpRDMAWrite, Flags: FlagSignaled | FlagInline, WRID: 13,
		Length: len(inline), Inline: inline,
		RAddr: dataAt + 128, RKey: dstMR.RKey,
	})
	r.e.Run()
	got := make([]byte, len(inline))
	if err := r.b.f.Space().Read(dataAt+128, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, inline) {
		t.Fatalf("inline payload = %v", got)
	}
}

func TestInlineWQERoundTrip(t *testing.T) {
	in := WQE{Opcode: OpRDMAWrite, Flags: FlagInline, WRID: 5,
		Length: 5, Inline: []byte{1, 2, 3, 4, 5}, RAddr: 0x99, RKey: 7}
	buf := make([]byte, WQEBytes)
	EncodeWQE(in, buf)
	out, err := DecodeWQE(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Inline, in.Inline) || out.Length != 5 || out.RAddr != 0x99 {
		t.Fatalf("inline round trip %+v", out)
	}
}

func TestInlineTooLargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized inline accepted")
		}
	}()
	buf := make([]byte, WQEBytes)
	EncodeWQE(WQE{Flags: FlagInline, Inline: make([]byte, InlineMax+1)}, buf)
}

func TestQPStateMachine(t *testing.T) {
	e := sim.NewEngine()
	n := newNode(e, "x", nil)
	qp := n.hca.CreateQP(sqBase, 16, rqBase, 16,
		n.hca.CreateCQ(sendCQAt, 16), n.hca.CreateCQ(recvCQAt, 16))
	if qp.State() != StateReset {
		t.Fatalf("fresh QP in %v", qp.State())
	}
	if err := qp.ModifyQP(StateRTS); err == nil {
		t.Fatal("RESET->RTS accepted")
	}
	for _, s := range []QPState{StateInit, StateRTR, StateRTS} {
		if err := qp.ModifyQP(s); err != nil {
			t.Fatalf("legal transition to %v rejected: %v", s, err)
		}
	}
	if err := qp.ModifyQP(StateErr); err != nil {
		t.Fatalf("->ERR rejected: %v", err)
	}
	if err := qp.ModifyQP(StateReset); err != nil {
		t.Fatalf("ERR->RESET rejected: %v", err)
	}
	if qp.sqHeadHW != 0 || qp.sqTailHW != 0 {
		t.Fatal("reset did not clear hardware indices")
	}
}

func TestErrQPFlushesWQEs(t *testing.T) {
	r, qa, _ := newRig(t)
	srcMR := r.a.hca.RegMR(dataAt, 4096)
	dstMR := r.b.hca.RegMR(dataAt, 4096)
	// First WQE has a bad lkey: error CQE + QP -> ERR. The second must be
	// flushed with an error completion and never reach the wire.
	postSend(t, r.a, qa, 0, WQE{
		Opcode: OpRDMAWrite, WRID: 1, LAddr: dataAt, LKey: 0xbad,
		Length: 64, RAddr: dataAt, RKey: dstMR.RKey,
	})
	postSend(t, r.a, qa, 1, WQE{
		Opcode: OpRDMAWrite, WRID: 2, LAddr: dataAt, LKey: srcMR.LKey,
		Length: 64, RAddr: dataAt, RKey: dstMR.RKey,
	})
	r.e.Run()
	if qa.State() != StateErr {
		t.Fatalf("QP state = %v, want ERR", qa.State())
	}
	if r.a.hca.Stats().FlushedWQEs == 0 {
		t.Fatal("second WQE not flushed")
	}
	if r.b.hca.Stats().PacketsRx != 0 {
		t.Fatal("packet escaped an ERR QP")
	}
	// Both completions present, both with error status.
	for i := 0; i < 2; i++ {
		buf := make([]byte, CQEBytes)
		if err := r.a.f.Space().Read(qa.SendCQ.EntryAddr(i), buf); err != nil {
			t.Fatal(err)
		}
		want := StatusErr
		if i == 1 {
			// The second WQE never executed: Verbs flushes it.
			want = StatusFlushErr
		}
		if cqe := DecodeCQE(buf); !cqe.Valid || cqe.Status != want {
			t.Fatalf("CQE %d = %+v, want status %d", i, cqe, want)
		}
	}
}

func TestMTUFramingOverhead(t *testing.T) {
	e := sim.NewEngine()
	n := newNode(e, "x", nil)
	if got := n.hca.wireBytes(100); got != 100+PktHeader {
		t.Fatalf("wireBytes(100) = %d", got)
	}
	if got := n.hca.wireBytes(2048); got != 2048+PktHeader {
		t.Fatalf("wireBytes(2048) = %d", got)
	}
	if got := n.hca.wireBytes(2049); got != 2049+2*PktHeader {
		t.Fatalf("wireBytes(2049) = %d", got)
	}
	if got := n.hca.wireBytes(0); got != PktHeader {
		t.Fatalf("wireBytes(0) = %d", got)
	}
}

func TestReadLatencyLongerThanWrite(t *testing.T) {
	// A read is a full round trip plus the responder's local DMA; it must
	// take measurably longer than a write's one-way completion.
	measure := func(op int) sim.Duration {
		r, qa, _ := newRig(t)
		locMR := r.a.hca.RegMR(dataAt, 4096)
		remMR := r.b.hca.RegMR(dataAt, 4096)
		wqe := WQE{
			Opcode: op, Flags: FlagSignaled, WRID: 1,
			LAddr: dataAt, LKey: locMR.LKey, Length: 1024,
			RAddr: dataAt, RKey: remMR.RKey,
		}
		var done sim.Time
		r.e.Spawn("meter", func(p *sim.Proc) {
			postSend(t, r.a, qa, 0, wqe)
			for {
				buf := make([]byte, CQEBytes)
				if err := r.a.f.Space().Read(qa.SendCQ.EntryAddr(0), buf); err != nil {
					t.Error(err)
					return
				}
				if DecodeCQE(buf).Valid {
					done = p.Now()
					return
				}
				p.Sleep(100 * sim.Nanosecond)
			}
		})
		r.e.Run()
		return sim.Duration(done)
	}
	write := measure(OpRDMAWrite)
	read := measure(OpRDMARead)
	if read <= write {
		t.Fatalf("read completion (%v) should exceed write completion (%v)", read, write)
	}
}
