package transport

import (
	"bytes"
	"testing"

	"putget/internal/cluster"
	"putget/internal/memspace"
	"putget/internal/sim"
)

// TestPayloadPoolKeepsBytesIntact drives byte-checked puts and gets through
// the NICs' recycled payload buffers (sim.Payload) on both fabrics:
// without reliability, with it on a clean wire, and with it under drops
// and corruption, where go-back-N replays share one buffer. Released
// buffers are poisoned, so a buffer recycled while a reader still needed
// it lands poison or another operation's bytes instead of the pattern.
// Puts go out four at a time to keep several buffers in flight.
//
// Under reliability a 64 KiB transfer outlasts the retransmission timer
// (the EXTOLL wire serializes it for 69 µs against a 15 µs timer; an IB
// read's P2P fetch takes 62 µs against 20 µs), so retries run out and the
// link or QP dies mid-run with or without pooling. Those cells check
// that every destination holds its pattern or its untouched zeros, never
// foreign bytes; all other cells require every operation to land intact
// and a buffer to be reused.
func TestPayloadPoolKeepsBytesIntact(t *testing.T) {
	configs := []struct {
		name string
		set  func(p *cluster.Params)
	}{
		{"plain", func(*cluster.Params) {}},
		{"reliable", func(p *cluster.Params) { p.FaultInject = true }},
		{"lossy", func(p *cluster.Params) {
			p.FaultInject, p.FaultSeed = true, 3
			p.FaultDropRate, p.FaultCorruptRate = 0.2, 0.05
		}},
	}
	const rounds, window = 8, 4
	forBoth(t, func(t *testing.T, k Kind) {
		for _, cfg := range configs {
			for _, size := range []int{4, 4 << 10, 64 << 10} {
				p := cluster.Default()
				cfg.set(&p)
				sound := !p.FaultInject || size < 64<<10
				r := newRig(t, k, p, ConnHint{})
				pattern := func(op, i int) []byte {
					b := make([]byte, size)
					for j := range b {
						b[j] = byte(op*131 + i*17 + j*7 + 1)
					}
					return b
				}
				// Puts copy A[i] to B[i]; gets copy B[getBase+i] to A[getBase+i].
				getBase := memspace.Addr(rigBuf / 2)
				slot := func(i int) memspace.Addr { return memspace.Addr(i * size) }
				for i := 0; i < rounds; i++ {
					if err := r.tb.A.Space.Write(r.aBuf+slot(i), pattern(0, i)); err != nil {
						t.Fatal(err)
					}
					if err := r.tb.B.Space.Write(r.bBuf+getBase+slot(i), pattern(1, i)); err != nil {
						t.Fatal(err)
					}
				}
				done := sim.NewCompletion(r.tb.E)
				r.tb.E.Spawn("a.cpu", func(pr *sim.Proc) {
					for i := 0; i < rounds; i += window {
						for j := i; j < i+window; j++ {
							r.a.HostPut(pr, r.aR, uint64(slot(j)), r.bR, uint64(slot(j)), size, FlagLocalComp)
						}
						for j := i; j < i+window; j++ {
							r.a.HostWaitComplete(pr, CompLocal)
						}
					}
					for i := 0; i < rounds; i++ {
						off := uint64(getBase + slot(i))
						r.a.HostGet(pr, r.aR, off, r.bR, off, size)
					}
					done.Complete()
				})
				r.tb.E.Run()
				mustDone(t, done, cfg.name+" put/get proc")
				check := func(what string, n *cluster.Node, at memspace.Addr, want []byte) {
					got := make([]byte, size)
					if err := n.Space.Read(at, got); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) && (sound || !bytes.Equal(got, make([]byte, size))) {
						n := min(size, 8)
						t.Errorf("%s %dB: %s landed %x..., want %x...", cfg.name, size, what, got[:n], want[:n])
					}
				}
				for i := 0; i < rounds; i++ {
					check("put", r.tb.B, r.bBuf+slot(i), pattern(0, i))
					check("get", r.tb.A, r.aBuf+getBase+slot(i), pattern(1, i))
				}
				if sound && r.tb.E.PayloadHits() == 0 {
					t.Errorf("%s %dB: no payload buffer was reused", cfg.name, size)
				}
				if p.FaultDropRate > 0 && retransmits(r.tb.Cluster) == 0 {
					t.Errorf("%s %dB: the lossy run never retransmitted", cfg.name, size)
				}
				r.tb.Shutdown()
			}
		}
	})
}
