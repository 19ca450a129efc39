// Package ibsim models a Mellanox-class InfiniBand HCA at the level the
// Verbs API exposes: queue pairs backed by rings in host *or* GPU memory,
// completion queues, a doorbell BAR, big-endian work-queue elements, memory
// registration with lkey/rkey protection, and a reliable, in-order RC
// transport between two adapters.
//
// The two-step issue path (WQE into queue memory, then a doorbell MMIO
// write) and the byte-swapped descriptor format are exactly the properties
// the paper's Infiniband analysis charges against GPU-side control.
package ibsim

import (
	"encoding/binary"
	"fmt"
)

// Opcodes carried in WQEs and packets.
const (
	OpRDMAWrite    = 1 // one-sided remote write
	OpRDMAWriteImm = 2 // remote write + immediate (consumes a recv WQE)
	OpSend         = 3 // two-sided send (consumes a recv WQE for the address)
	OpRDMARead     = 4 // one-sided remote read
	OpAtomicFAdd   = 5 // one-sided 8-byte fetch-and-add; old value lands at LAddr
)

// WQE flags.
const (
	FlagSignaled = 1 << 0 // generate a send-side CQE
	// FlagInline embeds the payload in the WQE itself: the HCA skips the
	// payload DMA read entirely — the latency optimization real HCAs
	// offer for small messages.
	FlagInline = 1 << 1
)

// InlineMax is the maximum inline payload: it reuses the WQE's local
// scatter-gather fields (LAddr + LKey, 12 bytes); the Length field stays.
const InlineMax = 12

// Sizes of the hardware descriptors in queue memory.
const (
	WQEBytes     = 64 // send work-queue element
	RecvWQEBytes = 32 // receive work-queue element
	CQEBytes     = 32 // completion-queue element
)

// WQEOwnerMagic marks a send WQE slot as valid for the hardware; the HCA
// rejects slots that do not carry it (catching doorbells racing ahead of
// descriptor writes).
const WQEOwnerMagic = 0x57514545 // "WQEE"

// WQE is a decoded send work-queue element.
type WQE struct {
	Opcode int
	Flags  int
	WRID   uint64
	LAddr  uint64
	LKey   uint32
	Length int
	RAddr  uint64
	RKey   uint32
	Imm    uint32
	// Add is the OpAtomicFAdd operand; it travels in the descriptor (and
	// the request header on the wire), like real IB's AtomicETH.
	Add uint64
	// Inline carries the payload for FlagInline WQEs (≤ InlineMax bytes);
	// it occupies the local-address fields in the hardware layout.
	Inline []byte
}

// EncodeWQE serializes a WQE into its 64-byte big-endian hardware layout.
// (InfiniBand hardware consumes big-endian descriptors — the conversion
// cost on a little-endian GPU is a key finding of the paper.)
func EncodeWQE(w WQE, buf []byte) {
	if len(buf) < WQEBytes {
		panic("ibsim: WQE buffer too small")
	}
	for i := range buf[:WQEBytes] {
		buf[i] = 0
	}
	binary.BigEndian.PutUint32(buf[0:], uint32(w.Opcode))
	binary.BigEndian.PutUint32(buf[4:], uint32(w.Flags))
	binary.BigEndian.PutUint64(buf[8:], w.WRID)
	if w.Flags&FlagInline != 0 {
		if len(w.Inline) > InlineMax {
			panic("ibsim: inline payload exceeds InlineMax")
		}
		copy(buf[16:28], w.Inline)
		binary.BigEndian.PutUint32(buf[28:], uint32(len(w.Inline)))
	} else {
		binary.BigEndian.PutUint64(buf[16:], w.LAddr)
		binary.BigEndian.PutUint32(buf[24:], w.LKey)
		binary.BigEndian.PutUint32(buf[28:], uint32(w.Length))
	}
	binary.BigEndian.PutUint64(buf[32:], w.RAddr)
	binary.BigEndian.PutUint32(buf[40:], w.RKey)
	binary.BigEndian.PutUint32(buf[44:], w.Imm)
	binary.BigEndian.PutUint32(buf[48:], WQEOwnerMagic)
	binary.BigEndian.PutUint64(buf[52:], w.Add)
}

// DecodeWQE parses the hardware layout back into a WQE, checking the
// owner stamp.
func DecodeWQE(buf []byte) (WQE, error) {
	if len(buf) < WQEBytes {
		return WQE{}, fmt.Errorf("ibsim: short WQE (%d bytes)", len(buf))
	}
	if binary.BigEndian.Uint32(buf[48:]) != WQEOwnerMagic {
		return WQE{}, fmt.Errorf("ibsim: WQE slot not owned by hardware (stale or unstamped)")
	}
	w := WQE{
		Opcode: int(binary.BigEndian.Uint32(buf[0:])),
		Flags:  int(binary.BigEndian.Uint32(buf[4:])),
		WRID:   binary.BigEndian.Uint64(buf[8:]),
		Length: int(binary.BigEndian.Uint32(buf[28:])),
		RAddr:  binary.BigEndian.Uint64(buf[32:]),
		RKey:   binary.BigEndian.Uint32(buf[40:]),
		Imm:    binary.BigEndian.Uint32(buf[44:]),
		Add:    binary.BigEndian.Uint64(buf[52:]),
	}
	if w.Flags&FlagInline != 0 {
		if w.Length > InlineMax {
			return WQE{}, fmt.Errorf("ibsim: inline length %d exceeds maximum", w.Length)
		}
		w.Inline = append([]byte(nil), buf[16:16+w.Length]...)
	} else {
		w.LAddr = binary.BigEndian.Uint64(buf[16:])
		w.LKey = binary.BigEndian.Uint32(buf[24:])
	}
	return w, nil
}

// RecvWQE is a decoded receive work-queue element.
type RecvWQE struct {
	WRID uint64
	Addr uint64
	LKey uint32
}

// EncodeRecvWQE serializes a receive WQE (32 bytes, big endian).
func EncodeRecvWQE(w RecvWQE, buf []byte) {
	if len(buf) < RecvWQEBytes {
		panic("ibsim: recv WQE buffer too small")
	}
	for i := range buf[:RecvWQEBytes] {
		buf[i] = 0
	}
	binary.BigEndian.PutUint64(buf[0:], w.WRID)
	binary.BigEndian.PutUint64(buf[8:], w.Addr)
	binary.BigEndian.PutUint32(buf[16:], w.LKey)
	binary.BigEndian.PutUint32(buf[20:], WQEOwnerMagic)
}

// DecodeRecvWQE parses a receive WQE.
func DecodeRecvWQE(buf []byte) (RecvWQE, error) {
	if len(buf) < RecvWQEBytes {
		return RecvWQE{}, fmt.Errorf("ibsim: short recv WQE")
	}
	if binary.BigEndian.Uint32(buf[20:]) != WQEOwnerMagic {
		return RecvWQE{}, fmt.Errorf("ibsim: recv WQE slot not owned by hardware")
	}
	return RecvWQE{
		WRID: binary.BigEndian.Uint64(buf[0:]),
		Addr: binary.BigEndian.Uint64(buf[8:]),
		LKey: binary.BigEndian.Uint32(buf[16:]),
	}, nil
}

// CQE statuses. Numeric values follow enum ibv_wc_status.
const (
	StatusOK       = 0
	StatusErr      = 1 // generic local error (IBV_WC_LOC_QP_OP_ERR territory)
	StatusFlushErr = 5 // IBV_WC_WR_FLUSH_ERR: WQE flushed on an ERR/RESET QP
	// StatusRemAccessErr is IBV_WC_REM_ACCESS_ERR: the responder refused
	// a read or atomic whose rkey check failed.
	StatusRemAccessErr = 10
	StatusRetryExc     = 12 // IBV_WC_RETRY_EXC_ERR: transport retries exhausted
	StatusRnrExc       = 13 // IBV_WC_RNR_RETRY_EXC_ERR: RNR retries exhausted
)

// CQE is a decoded completion-queue element.
type CQE struct {
	Valid   bool
	Opcode  int
	WRID    uint64
	ByteLen int
	Imm     uint32
	QPN     uint32
	Status  int
}

// EncodeCQE serializes a CQE (32 bytes, big endian, valid word first).
func EncodeCQE(c CQE, buf []byte) {
	if len(buf) < CQEBytes {
		panic("ibsim: CQE buffer too small")
	}
	for i := range buf[:CQEBytes] {
		buf[i] = 0
	}
	v := uint32(0)
	if c.Valid {
		v = 1
	}
	binary.BigEndian.PutUint32(buf[0:], v)
	binary.BigEndian.PutUint32(buf[4:], uint32(c.Opcode))
	binary.BigEndian.PutUint64(buf[8:], c.WRID)
	binary.BigEndian.PutUint32(buf[16:], uint32(c.ByteLen))
	binary.BigEndian.PutUint32(buf[20:], c.Imm)
	binary.BigEndian.PutUint32(buf[24:], c.QPN)
	binary.BigEndian.PutUint32(buf[28:], uint32(c.Status))
}

// DecodeCQE parses a CQE.
func DecodeCQE(buf []byte) CQE {
	if len(buf) < CQEBytes {
		panic("ibsim: short CQE")
	}
	return CQE{
		Valid:   binary.BigEndian.Uint32(buf[0:]) == 1,
		Opcode:  int(binary.BigEndian.Uint32(buf[4:])),
		WRID:    binary.BigEndian.Uint64(buf[8:]),
		ByteLen: int(binary.BigEndian.Uint32(buf[16:])),
		Imm:     binary.BigEndian.Uint32(buf[20:]),
		QPN:     binary.BigEndian.Uint32(buf[24:]),
		Status:  int(binary.BigEndian.Uint32(buf[28:])),
	}
}

// CQEValidWord reports whether the first 8 bytes of a CQE slot (as read by
// a 64-bit poll) indicate a valid entry.
func CQEValidWord(first8 uint64) bool {
	// The valid flag is the first big-endian 32-bit word; in the 64-bit
	// little-endian load the GPU performs, it occupies the low word's
	// byte-swapped form. Checking any nonzero first word is what the
	// real polling fast path does.
	return first8 != 0
}
