// Package memspace provides the functional (data-carrying) view of a
// node's physical address space: byte-addressable RAM devices mapped at
// fixed bases, plus routing from addresses to devices.
//
// Timing is deliberately absent here — the pcie, gpusim and hostsim
// packages charge virtual time for accesses; memspace only moves bytes, so
// put/get experiments can verify end-to-end data correctness.
package memspace

import (
	"encoding/binary"
	"fmt"
)

// Addr is a simulated physical address.
type Addr uint64

// Region is a half-open address range [Base, Base+Size).
type Region struct {
	Base Addr
	Size uint64
}

// Contains reports whether a falls inside the region.
func (r Region) Contains(a Addr) bool {
	return a >= r.Base && uint64(a-r.Base) < r.Size
}

// End returns the first address past the region.
func (r Region) End() Addr { return r.Base + Addr(r.Size) }

// Overlaps reports whether two regions share any address.
func (r Region) Overlaps(o Region) bool {
	return r.Base < o.End() && o.Base < r.End()
}

// RAM pages are 4 KiB, held in a two-level table: one pointer per 64 KiB
// chunk, each chunk a block of 16 lazily allocated pages. Small pages keep
// a run's scattered rings, flags and buffers from materializing 64 KiB
// each; the chunk table itself grows on first touch, only as far as the
// highest chunk written, so a RAM that is never written costs nothing
// beyond its header.
const (
	ramPageShift  = 12
	ramPageSize   = 1 << ramPageShift
	ramChunkShift = 16
	ramChunkPages = 1 << (ramChunkShift - ramPageShift)
)

type (
	ramPage  [ramPageSize]byte
	ramChunk [ramChunkPages]*ramPage
)

// RAM is a byte-array memory device with copy-on-write pages: a page
// materializes on its first write, and reads of untouched pages observe
// zeros — exactly the bytes a freshly made []byte would hold. Testbeds
// configure memories in the hundreds of megabytes but touch a tiny
// working set; allocating (and zeroing) the full span per experiment
// cell dominated cell setup cost.
type RAM struct {
	name   string
	size   uint64
	chunks []*ramChunk // up to the highest chunk written so far
}

// NewRAM creates a RAM device of the given size. No page storage is
// allocated until the first write.
func NewRAM(name string, size uint64) *RAM { return &RAM{name: name, size: size} }

// Name identifies the device in errors.
func (r *RAM) Name() string { return r.name }

// Size returns the device capacity in bytes.
func (r *RAM) Size() uint64 { return r.size }

// page returns the page holding off, or nil when it was never written.
func (r *RAM) page(off uint64) *ramPage {
	if i := off >> ramChunkShift; i < uint64(len(r.chunks)) {
		if c := r.chunks[i]; c != nil {
			return c[off>>ramPageShift&(ramChunkPages-1)]
		}
	}
	return nil
}

// writablePage returns the page holding off, materializing it (and its
// chunk, and the table up to it) on first touch.
func (r *RAM) writablePage(off uint64) *ramPage {
	i := off >> ramChunkShift
	if i >= uint64(len(r.chunks)) {
		r.chunks = append(r.chunks, make([]*ramChunk, i+1-uint64(len(r.chunks)))...)
	}
	c := r.chunks[i]
	if c == nil {
		c = new(ramChunk)
		r.chunks[i] = c
	}
	pg := &c[off>>ramPageShift&(ramChunkPages-1)]
	if *pg == nil {
		*pg = new(ramPage)
	}
	return *pg
}

// ReadAt copies len(b) bytes starting at offset off into b.
func (r *RAM) ReadAt(off uint64, b []byte) error {
	if off+uint64(len(b)) > r.size || off+uint64(len(b)) < off {
		return fmt.Errorf("memspace: %s: read [%#x,%#x) out of bounds (size %#x)", r.name, off, off+uint64(len(b)), r.size)
	}
	for len(b) > 0 {
		po := off & (ramPageSize - 1)
		n := min(uint64(ramPageSize-po), uint64(len(b)))
		if pg := r.page(off); pg != nil {
			copy(b[:n], pg[po:])
		} else {
			clear(b[:n]) // untouched page: the bytes are zero
		}
		b = b[n:]
		off += n
	}
	return nil
}

// wordPage returns the page offset of the word at off, or false when the
// word is out of bounds or straddles two pages (the byte path handles,
// or reports, those).
func (r *RAM) wordPage(off uint64) (uint64, bool) {
	po := off & (ramPageSize - 1)
	return po, off < r.size && r.size-off >= 8 && po <= ramPageSize-8
}

// readWord is the word fast path of Space.ReadU64.
func (r *RAM) readWord(off uint64) (uint64, bool) {
	po, ok := r.wordPage(off)
	if !ok {
		return 0, false
	}
	pg := r.page(off)
	if pg == nil {
		return 0, true
	}
	return binary.LittleEndian.Uint64(pg[po:]), true
}

// writeWord is the word fast path of Space.WriteU64.
func (r *RAM) writeWord(off uint64, v uint64) bool {
	po, ok := r.wordPage(off)
	if !ok {
		return false
	}
	binary.LittleEndian.PutUint64(r.writablePage(off)[po:], v)
	return true
}

// WriteAt copies b into the device starting at offset off.
func (r *RAM) WriteAt(off uint64, b []byte) error {
	if off+uint64(len(b)) > r.size || off+uint64(len(b)) < off {
		return fmt.Errorf("memspace: %s: write [%#x,%#x) out of bounds (size %#x)", r.name, off, off+uint64(len(b)), r.size)
	}
	for len(b) > 0 {
		po := off & (ramPageSize - 1)
		n := min(uint64(ramPageSize-po), uint64(len(b)))
		copy(r.writablePage(off)[po:], b[:n])
		b = b[n:]
		off += n
	}
	return nil
}

// mapping binds a region of the space to a RAM device.
type mapping struct {
	region Region
	ram    *RAM
}

// Space routes physical addresses to mapped RAM devices. One Space
// exists per node; the two nodes of a testbed have independent spaces.
type Space struct {
	maps []mapping
}

// NewSpace returns an empty address space.
func NewSpace() *Space { return &Space{} }

// Map binds ram at base. Overlapping mappings are rejected.
func (s *Space) Map(base Addr, ram *RAM) (Region, error) {
	r := Region{Base: base, Size: ram.Size()}
	for _, m := range s.maps {
		if m.region.Overlaps(r) {
			return Region{}, fmt.Errorf("memspace: mapping %s at %#x overlaps %s at %#x",
				ram.Name(), base, m.ram.Name(), m.region.Base)
		}
	}
	s.maps = append(s.maps, mapping{region: r, ram: ram})
	return r, nil
}

// MustMap is Map that panics on error; for fixed testbed construction.
func (s *Space) MustMap(base Addr, ram *RAM) Region {
	r, err := s.Map(base, ram)
	if err != nil {
		panic(err)
	}
	return r
}

// Lookup returns the device and region containing a.
func (s *Space) Lookup(a Addr) (*RAM, Region, error) {
	for _, m := range s.maps {
		if m.region.Contains(a) {
			return m.ram, m.region, nil
		}
	}
	return nil, Region{}, fmt.Errorf("memspace: address %#x unmapped", a)
}

// Read copies len(b) bytes from address a. The access must not straddle a
// mapping boundary — hardware DMA never does, and catching it here turns
// model bugs into loud failures.
func (s *Space) Read(a Addr, b []byte) error {
	ram, region, err := s.Lookup(a)
	if err != nil {
		return err
	}
	return ram.ReadAt(uint64(a-region.Base), b)
}

// Write copies b to address a.
func (s *Space) Write(a Addr, b []byte) error {
	ram, region, err := s.Lookup(a)
	if err != nil {
		return err
	}
	return ram.WriteAt(uint64(a-region.Base), b)
}

// ReadU64 reads a little-endian 64-bit word at a. A word inside one RAM
// page is read in place; one straddling two pages takes the byte path.
//
//putget:hot
func (s *Space) ReadU64(a Addr) (uint64, error) {
	ram, region, err := s.Lookup(a)
	if err != nil {
		return 0, err
	}
	off := uint64(a - region.Base)
	if v, ok := ram.readWord(off); ok {
		return v, nil
	}
	var b [8]byte
	if err := ram.ReadAt(off, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// WriteU64 writes a little-endian 64-bit word at a, in place when it
// falls inside one RAM page.
//
//putget:hot
func (s *Space) WriteU64(a Addr, v uint64) error {
	ram, region, err := s.Lookup(a)
	if err != nil {
		return err
	}
	off := uint64(a - region.Base)
	if ram.writeWord(off, v) {
		return nil
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return ram.WriteAt(off, b[:])
}

// ReadU32 reads a little-endian 32-bit word at a.
func (s *Space) ReadU32(a Addr) (uint32, error) {
	var b [4]byte
	if err := s.Read(a, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}
