package memspace

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestRAMRoundTrip(t *testing.T) {
	r := NewRAM("ram", 1024)
	in := []byte{1, 2, 3, 4, 5}
	if err := r.WriteAt(100, in); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 5)
	if err := r.ReadAt(100, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(in, out) {
		t.Fatalf("read %v, want %v", out, in)
	}
}

func TestRAMBounds(t *testing.T) {
	r := NewRAM("ram", 16)
	if err := r.WriteAt(12, make([]byte, 8)); err == nil {
		t.Error("expected write OOB error")
	}
	if err := r.ReadAt(16, make([]byte, 1)); err == nil {
		t.Error("expected read OOB error")
	}
	if err := r.WriteAt(8, make([]byte, 8)); err != nil {
		t.Errorf("boundary write failed: %v", err)
	}
	// Offset overflow must not wrap around.
	if err := r.ReadAt(^uint64(0)-3, make([]byte, 8)); err == nil {
		t.Error("expected overflow read to fail")
	}
}

func TestSpaceRouting(t *testing.T) {
	s := NewSpace()
	host := NewRAM("host", 4096)
	dev := NewRAM("dev", 4096)
	s.MustMap(0x0, host)
	s.MustMap(0x1_0000, dev)

	if err := s.WriteU64(0x10, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteU64(0x1_0010, 0xcafebabe); err != nil {
		t.Fatal(err)
	}
	v, err := s.ReadU64(0x10)
	if err != nil || v != 0xdeadbeef {
		t.Fatalf("host read = %#x, %v", v, err)
	}
	v, err = s.ReadU64(0x1_0010)
	if err != nil || v != 0xcafebabe {
		t.Fatalf("dev read = %#x, %v", v, err)
	}
	// Same offsets in both devices must not alias.
	u, _ := s.ReadU64(0x1_0010)
	if u == 0xdeadbeef {
		t.Fatal("mappings alias")
	}
}

func TestSpaceUnmapped(t *testing.T) {
	s := NewSpace()
	s.MustMap(0x1000, NewRAM("r", 16))
	if err := s.Write(0x0, []byte{1}); err == nil {
		t.Error("expected unmapped write to fail")
	}
	if _, err := s.ReadU32(0x2000); err == nil {
		t.Error("expected unmapped read to fail")
	}
}

func TestSpaceOverlapRejected(t *testing.T) {
	s := NewSpace()
	s.MustMap(0x1000, NewRAM("a", 0x100))
	if _, err := s.Map(0x10ff, NewRAM("b", 0x100)); err == nil {
		t.Error("expected overlap to be rejected")
	}
	if _, err := s.Map(0x1100, NewRAM("c", 0x100)); err != nil {
		t.Errorf("adjacent mapping rejected: %v", err)
	}
}

func TestRegionHelpers(t *testing.T) {
	r := Region{Base: 100, Size: 50}
	if !r.Contains(100) || !r.Contains(149) || r.Contains(150) || r.Contains(99) {
		t.Error("Contains wrong at boundaries")
	}
	if r.End() != 150 {
		t.Errorf("End = %d, want 150", r.End())
	}
	if !r.Overlaps(Region{Base: 149, Size: 1}) {
		t.Error("touching last byte should overlap")
	}
	if r.Overlaps(Region{Base: 150, Size: 10}) {
		t.Error("adjacent region should not overlap")
	}
}

func TestU32U64Endianness(t *testing.T) {
	s := NewSpace()
	s.MustMap(0, NewRAM("r", 64))
	if err := s.WriteU64(0, 0x0102030405060708); err != nil {
		t.Fatal(err)
	}
	lo, _ := s.ReadU32(0)
	hi, _ := s.ReadU32(4)
	if lo != 0x05060708 || hi != 0x01020304 {
		t.Fatalf("little-endian split = %#x,%#x", lo, hi)
	}
}

// Property: write-then-read through the space round-trips any payload at
// any in-bounds offset.
func TestSpaceRoundTripProperty(t *testing.T) {
	s := NewSpace()
	s.MustMap(0x4000, NewRAM("r", 1<<16))
	f := func(off uint16, payload []byte) bool {
		if len(payload) == 0 {
			return true
		}
		if int(off)+len(payload) > 1<<16 {
			return true // out of scope for this property
		}
		a := Addr(0x4000 + uint64(off))
		if err := s.Write(a, payload); err != nil {
			return false
		}
		got := make([]byte, len(payload))
		if err := s.Read(a, got); err != nil {
			return false
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWordAccessDoesNotAllocate pins Space.ReadU64/WriteU64 on RAM at
// zero allocations: a word inside one page is read and written in place.
// Byte reads and writes of stack arrays, including ones straddling two
// pages, allocate nothing either: the space hands them to the RAM, which
// does not keep them. A word straddling two pages takes the byte path
// and must still agree.
func TestWordAccessDoesNotAllocate(t *testing.T) {
	s := NewSpace()
	s.MustMap(0x1000, NewRAM("r", 4*ramPageSize))
	addr := Addr(0x1000 + 0x40)
	n := uint64(0)
	got := testing.AllocsPerRun(1000, func() {
		n++
		if err := s.WriteU64(addr, n); err != nil {
			t.Fatal(err)
		}
		if v, err := s.ReadU64(addr); err != nil || v != n {
			t.Fatalf("read back %d, %v; want %d", v, err, n)
		}
	})
	if got != 0 {
		t.Errorf("word access: %v allocs/op, want 0", got)
	}
	got = testing.AllocsPerRun(1000, func() {
		n++
		var w, r [32]byte
		w[0] = byte(n)
		if err := s.Write(0x1000+ramPageSize-16, w[:]); err != nil {
			t.Fatal(err)
		}
		if err := s.Read(0x1000+ramPageSize-16, r[:]); err != nil || r != w {
			t.Fatalf("read back %x, %v; want %x", r, err, w)
		}
	})
	if got != 0 {
		t.Errorf("stack byte access: %v allocs/op, want 0", got)
	}
	if v, err := s.ReadU64(0x1000 + 3*ramPageSize); err != nil || v != 0 {
		t.Fatalf("untouched page read %d, %v; want 0", v, err)
	}
	straddle := Addr(0x1000 + ramPageSize - 3)
	if err := s.WriteU64(straddle, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	var b [8]byte
	if err := s.Read(straddle, b[:]); err != nil || b != [8]byte{0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11} {
		t.Fatalf("straddling word bytes %x, %v", b, err)
	}
	if v, err := s.ReadU64(straddle); err != nil || v != 0x1122334455667788 {
		t.Fatalf("straddling word read %#x, %v", v, err)
	}
	if _, err := s.ReadU64(0x1000 + 4*ramPageSize - 4); err == nil {
		t.Error("expected a word running past the end to fail")
	}
	if err := s.WriteU64(0x1000+4*ramPageSize-4, 1); err == nil {
		t.Error("expected a word write running past the end to fail")
	}
}

// TestRAMPageAndChunkBoundaries writes words and byte ranges that
// straddle 4 KiB page and 64 KiB chunk boundaries, and checks every byte
// against a flat reference slice, so untouched pages (and untouched parts
// of touched ones) must read as zeros.
func TestRAMPageAndChunkBoundaries(t *testing.T) {
	const size = 3*(1<<ramChunkShift) + 5*ramPageSize + 123 // not a page multiple
	s := NewSpace()
	s.MustMap(0x10000, NewRAM("r", size))
	ref := make([]byte, size)
	word := func(off uint64, v uint64) {
		if err := s.WriteU64(Addr(0x10000+off), v); err != nil {
			t.Fatalf("WriteU64(+%#x): %v", off, err)
		}
		for i := 0; i < 8; i++ {
			ref[off+uint64(i)] = byte(v >> (8 * i))
		}
	}
	bulk := func(off uint64, n int, fill byte) {
		b := make([]byte, n)
		for i := range b {
			b[i] = fill + byte(i)
		}
		if err := s.Write(Addr(0x10000+off), b); err != nil {
			t.Fatalf("Write(+%#x, %d): %v", off, n, err)
		}
		copy(ref[off:], b)
	}
	word(ramPageSize-8, 0x0102030405060708)                   // last word of a page
	word(2*ramPageSize-4, 0x1112131415161718)                 // straddles pages 1|2
	word(1<<ramChunkShift-3, 0x2122232425262728)              // straddles chunks 0|1
	word(2<<ramChunkShift, 0x3132333435363738)                // first word of chunk 2
	bulk(1<<ramChunkShift-100, 200, 0x40)                     // bytes across chunks 0|1
	bulk(2<<ramChunkShift-ramPageSize-7, 3*ramPageSize, 0x80) // pages and a chunk edge
	word(size-8, 0x4142434445464748)                          // last word of the device
	bulk(size-50, 50, 0xC0)                                   // tail of the partial page

	got := make([]byte, size)
	if err := s.Read(0x10000, got); err != nil {
		t.Fatal(err)
	}
	if i := firstDiff(got, ref); i >= 0 {
		t.Fatalf("byte +%#x = %#x, want %#x", i, got[i], ref[i])
	}
	for _, off := range []uint64{ramPageSize - 8, 2*ramPageSize - 4, 1<<ramChunkShift - 3, 2 << ramChunkShift, size - 8, 3 << ramChunkShift} {
		v, err := s.ReadU64(Addr(0x10000 + off))
		if want := binary.LittleEndian.Uint64(ref[off:]); err != nil || v != want {
			t.Errorf("ReadU64(+%#x) = %#x, %v; want %#x", off, v, err, want)
		}
	}
	if _, err := s.ReadU64(Addr(0x10000 + size - 7)); err == nil {
		t.Error("a word running past a partial last page must fail")
	}
	if err := s.Write(Addr(0x10000+size-1), []byte{1, 2}); err == nil {
		t.Error("a write running past a partial last page must fail")
	}
}

// TestRAMUntouchedReadsZero reads whole never-written chunks and pages,
// including ones beside written pages, and expects zeros.
func TestRAMUntouchedReadsZero(t *testing.T) {
	r := NewRAM("r", 4<<ramChunkShift)
	if err := r.WriteAt(1<<ramChunkShift+ramPageSize, []byte{0xFF}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ off, n uint64 }{
		{0, 1 << ramChunkShift},                               // untouched chunk
		{1 << ramChunkShift, ramPageSize},                     // untouched page of a touched chunk
		{1<<ramChunkShift + ramPageSize + 1, ramPageSize - 1}, // rest of the touched page
		{3 << ramChunkShift, 1 << ramChunkShift},              // last chunk
	} {
		b := bytes.Repeat([]byte{0xAA}, int(c.n))
		if err := r.ReadAt(c.off, b); err != nil {
			t.Fatal(err)
		}
		if i := firstDiff(b, make([]byte, c.n)); i >= 0 {
			t.Fatalf("untouched byte +%#x = %#x, want 0", c.off+uint64(i), b[i])
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// FuzzRAM drives a mapped RAM with Read, Write, ReadU64 and WriteU64 at
// offsets near 4 KiB page and 64 KiB chunk boundaries and the device's
// end (on either side of each), and checks every result and error
// against a flat slice. Each op is four input bytes: the kind, an anchor,
// a signed offset from it and a length.
func FuzzRAM(f *testing.F) {
	f.Add([]byte{1, 1, 0xf8, 16, 0, 1, 0xf8, 16})                     // write then read across page 0|1
	f.Add([]byte{3, 2, 0xfd, 0, 2, 2, 0xfd, 0, 0, 2, 0xf0, 40})       // a word across chunks 0|1
	f.Add([]byte{1, 4, 0xfc, 8, 3, 4, 0xfc, 0, 2, 4, 0xf9, 0})        // runs past the end
	f.Add([]byte{1, 0, 0x80, 250, 0, 3, 0x7f, 220, 3, 0, 0xff, 0})    // below the base, a long read
	f.Add([]byte{1, 3, 0x10, 255, 0, 3, 0x00, 255, 2, 4, 0x00, 0, 0}) // pages of chunk 2; at the end
	const (
		base = Addr(0x4_0000)
		size = 2<<ramChunkShift + 3*ramPageSize + 5
	)
	anchors := [...]int64{0, ramPageSize, 1 << ramChunkShift, 2<<ramChunkShift + ramPageSize, size}
	f.Fuzz(func(t *testing.T, ops []byte) {
		s := NewSpace()
		s.MustMap(base, NewRAM("fuzz", size))
		ref := make([]byte, size)
		for seq := uint64(1); len(ops) >= 4; seq++ {
			kind := ops[0] % 4
			off := anchors[int(ops[1])%len(anchors)] + int64(int8(ops[2]))
			n := int64(ops[3])
			if n > 200 {
				n = (n - 200) * 300 // up to 16 KiB: several pages
			}
			ops = ops[4:]
			if kind >= 2 {
				n = 8
			}
			a := base + Addr(off) // off < 0 wraps below base: unmapped
			ok := off >= 0 && off < size && off+n <= size
			check := func(op string, err error) {
				if (err == nil) != ok {
					t.Fatalf("op %d: %s(+%d, %d): err %v, want ok=%v", seq, op, off, n, err, ok)
				}
			}
			switch kind {
			case 0:
				b := bytes.Repeat([]byte{0xAA}, int(n))
				err := s.Read(a, b)
				check("Read", err)
				if ok && !bytes.Equal(b, ref[off:off+n]) {
					t.Fatalf("op %d: Read(+%d, %d) = %x, want %x", seq, off, n, b, ref[off:off+n])
				}
			case 1:
				b := make([]byte, n)
				for i := range b {
					b[i] = byte(seq) ^ byte(i)
				}
				check("Write", s.Write(a, b))
				if ok {
					copy(ref[off:], b)
				}
			case 2:
				v, err := s.ReadU64(a)
				check("ReadU64", err)
				if ok && v != binary.LittleEndian.Uint64(ref[off:]) {
					t.Fatalf("op %d: ReadU64(+%d) = %#x, want %#x", seq, off, v, binary.LittleEndian.Uint64(ref[off:]))
				}
			case 3:
				v := seq * 0x9E37_79B9_7F4A_7C15
				check("WriteU64", s.WriteU64(a, v))
				if ok {
					binary.LittleEndian.PutUint64(ref[off:], v)
				}
			}
		}
		got := make([]byte, size)
		if err := s.Read(base, got); err != nil {
			t.Fatal(err)
		}
		if i := firstDiff(got, ref); i >= 0 {
			t.Fatalf("byte +%#x = %#x, want %#x", i, got[i], ref[i])
		}
	})
}

var ramSink *RAM

// TestNewRAMBuildsNoTable: a RAM costs its header until written, however
// large it is configured, and its chunk table grows only as far as the
// highest chunk written.
func TestNewRAMBuildsNoTable(t *testing.T) {
	if got := testing.AllocsPerRun(100, func() { ramSink = NewRAM("r", 1<<30) }); got != 1 {
		t.Errorf("NewRAM(1 GiB): %v allocs, want 1", got)
	}
	r := NewRAM("r", 1<<30)
	if err := r.WriteAt(3<<ramChunkShift+5, []byte{7}); err != nil {
		t.Fatal(err)
	}
	if len(r.chunks) != 4 {
		t.Errorf("chunk table holds %d chunks after a write to chunk 3, want 4", len(r.chunks))
	}
	var b [2]byte
	if err := r.ReadAt(3<<ramChunkShift+4, b[:]); err != nil || b != [2]byte{0, 7} {
		t.Errorf("read back %v, %v", b, err)
	}
	if err := r.ReadAt(1<<30-2, b[:]); err != nil || b != [2]byte{} {
		t.Errorf("read past the table %v, %v; want zeros", b, err)
	}
}
