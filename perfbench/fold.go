package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// The layer fold turns pprof profiles into per-layer shares without
// `go tool pprof`: a small protobuf reader decodes the profile, and each
// sample's value is charged to one layer.
//
//   - CPU samples go to the package of the flat (self) frame, so Go
//     runtime work — channel handoffs, scheduling, stack growth, GC,
//     malloc — is the runtime's, not its caller's.
//   - Allocation samples go to the first frame outside the runtime, so
//     growslice or newproc count against the model code that asked.
//
// Layers are the simulator's internal packages, "runtime", and "other"
// (the standard library, the benchmark itself and the internal packages
// no layer metric names).

// layers lists the fold's layers in table order.
var layers = []string{
	"sim", "runtime", "gpusim", "pcie", "extoll", "ibsim", "wire", "topo",
	"hostsim", "memspace", "transport", "core", "shmem", "kv", "cluster",
	"faults", "bench", "other",
}

// runtimePkgs are standard packages that are part of the Go runtime.
var runtimePkgs = map[string]bool{
	"runtime": true, "internal/abi": true, "internal/bytealg": true,
	"internal/cpu": true, "internal/chacha8rand": true, "sync/atomic": true,
}

// handoffFuncs are the runtime functions a goroutine-to-goroutine
// control transfer runs: channel send/receive, park/ready and the
// scheduler loop, with the locks and futexes under them.
var handoffFuncs = map[string]bool{
	"send": true, "recv": true, "sendDirect": true, "recvDirect": true,
	"selectgo": true, "selectnbsend": true, "selectnbrecv": true,
	"gopark": true, "goparkunlock": true, "park_m": true, "goready": true, "ready": true,
	"schedule": true, "findRunnable": true, "execute": true, "gogo": true, "mcall": true,
	"runqget": true, "runqput": true, "runqgrab": true, "runqsteal": true, "globrunqget": true,
	"casgstatus": true, "wakep": true, "startm": true, "stopm": true, "handoffp": true,
	"acquirep": true, "releasep": true, "resetspinning": true, "stealWork": true,
	"notesleep": true, "notewakeup": true, "futex": true, "futexsleep": true, "futexwakeup": true,
	"lock": true, "lock2": true, "unlock": true, "unlock2": true, "lockWithRank": true, "unlockWithRank": true,
	"(*waitq).enqueue": true, "(*waitq).dequeue": true, "osyield": true, "procyield": true,
}

// stackFuncs are stack growth and the frame walking it drives.
var stackFuncs = map[string]bool{
	"newstack": true, "copystack": true, "morestack": true, "morestack_noctxt": true,
	"stackalloc": true, "stackfree": true, "stackcacherefill": true, "stackcacherelease": true,
	"stackpoolalloc": true, "stackpoolfree": true, "shrinkstack": true,
	"adjustframe": true, "adjustpointers": true, "adjustctxt": true, "adjustdefers": true,
	"adjustsudogs": true, "syncadjustsudogs": true, "fillstack": true,
	"(*unwinder).next": true, "(*unwinder).init": true, "(*unwinder).initAt": true,
	"(*unwinder).resolveInternal": true, "pcvalue": true, "funcspdelta": true,
	"findfunc": true, "step": true, "readvarint": true,
}

// funcPkg splits a symbol such as
// "putget/internal/topo.(*Net[...]).hopAt.func1" into its package path
// and the rest. Type-parameter lists are dropped first: instantiated
// names can hold package paths of their own.
func funcPkg(fn string) (pkg, name string) {
	var b strings.Builder
	depth := 0
	for _, r := range fn {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	s := b.String()
	slash := strings.LastIndex(s, "/")
	dot := strings.Index(s[slash+1:], ".")
	if dot < 0 {
		return s, ""
	}
	return s[:slash+1+dot], s[slash+2+dot:]
}

// layerOf maps a function symbol to its layer.
func layerOf(fn string) string {
	pkg, _ := funcPkg(fn)
	if runtimePkgs[pkg] || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	short := strings.TrimPrefix(pkg, "putget/internal/")
	for _, l := range layers {
		if l == short && l != "runtime" && l != "other" {
			return l
		}
	}
	return "other"
}

// runtimeClass refines a runtime CPU sample: "handoff", "stack" or "".
func runtimeClass(fn string) string {
	pkg, name := funcPkg(fn)
	if pkg != "runtime" {
		return ""
	}
	switch {
	case handoffFuncs[name] || strings.HasPrefix(name, "chan"):
		return "handoff"
	case stackFuncs[name]:
		return "stack"
	}
	return ""
}

// foldResult is a profile's value per layer, plus the runtime's handoff
// and stack parts of its CPU.
type foldResult struct {
	kind    string // "cpu" (nanoseconds) or "alloc" (bytes)
	byLayer map[string]float64
	handoff float64
	stack   float64
}

func (f foldResult) total() float64 {
	var t float64
	for _, v := range f.byLayer {
		t += v
	}
	return t
}

// add merges g into f (both the same kind).
func (f *foldResult) add(g foldResult) {
	for l, v := range g.byLayer {
		f.byLayer[l] += v
	}
	f.handoff += g.handoff
	f.stack += g.stack
}

// foldFile folds the profile at path: a CPU profile by flat frame, a
// heap or allocs profile by alloc_space.
func foldFile(path string) (foldResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return foldResult{}, err
	}
	p, err := parseProfile(data)
	if err != nil {
		return foldResult{}, fmt.Errorf("%s: %w", path, err)
	}
	return fold(p)
}

func fold(p *profile) (foldResult, error) {
	res := foldResult{byLayer: map[string]float64{}}
	vi := -1
	for i, t := range p.sampleTypes {
		switch t {
		case "cpu":
			res.kind, vi = "cpu", i
		case "alloc_space":
			res.kind, vi = "alloc", i
		}
	}
	if vi < 0 {
		return res, fmt.Errorf("profile has neither cpu nor alloc_space samples (types %v)", p.sampleTypes)
	}
	for _, s := range p.samples {
		if vi >= len(s.values) {
			continue
		}
		v := float64(s.values[vi])
		stack := p.stack(s)
		if len(stack) == 0 {
			res.byLayer["other"] += v
			continue
		}
		if res.kind == "cpu" {
			l := layerOf(stack[0])
			res.byLayer[l] += v
			if l == "runtime" {
				switch runtimeClass(stack[0]) {
				case "handoff":
					res.handoff += v
				case "stack":
					res.stack += v
				}
			}
			continue
		}
		l := "runtime"
		for _, fn := range stack {
			if l = layerOf(fn); l != "runtime" {
				break
			}
		}
		res.byLayer[l] += v
	}
	return res, nil
}

// layerTable renders a CPU and an allocation fold side by side, layers
// sorted by CPU share.
func layerTable(cpu, alloc foldResult) string {
	ct, at := cpu.total(), alloc.total()
	share := func(v, t float64) float64 {
		if t == 0 {
			return 0
		}
		return v / t
	}
	rows := append([]string(nil), layers...)
	sort.SliceStable(rows, func(i, j int) bool { return cpu.byLayer[rows[i]] > cpu.byLayer[rows[j]] })
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %8s %8s\n", "layer", "cpu", "alloc")
	for _, l := range rows {
		fmt.Fprintf(&b, "%-10s %7.1f%% %7.1f%%\n", l, 100*share(cpu.byLayer[l], ct), 100*share(alloc.byLayer[l], at))
	}
	fmt.Fprintf(&b, "%-10s %7.1f%%          (runtime: channel handoff and scheduling)\n", "  handoff", 100*share(cpu.handoff, ct))
	fmt.Fprintf(&b, "%-10s %7.1f%%          (runtime: stack growth and frame walking)\n", "  stack", 100*share(cpu.stack, ct))
	fmt.Fprintf(&b, "total      %7.3fs %6.1fMB\n", ct/1e9, at/(1<<20))
	return b.String()
}

// ---- pprof protobuf reader ----

// profile keeps what the fold needs from a perftools.profiles.Profile.
type profile struct {
	sampleTypes []string
	samples     []sample
	locFuncs    map[uint64][]uint64 // location ID -> function IDs, innermost first
	funcNames   map[uint64]int64    // function ID -> string table index
	strings     []string
}

type sample struct {
	locs   []uint64
	values []int64
}

// stack returns a sample's function names, leaf first, inlined frames
// expanded.
func (p *profile) stack(s sample) []string {
	var out []string
	for _, loc := range s.locs {
		for _, fid := range p.locFuncs[loc] {
			if i := p.funcNames[fid]; i >= 0 && int(i) < len(p.strings) {
				out = append(out, p.strings[i])
			}
		}
	}
	return out
}

// parseProfile decodes a (possibly gzipped) pprof profile.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	var typeIdx []int64
	err := eachField(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type: ValueType{type=1}
			var t int64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					t = int64(v)
				}
				return nil
			})
			typeIdx = append(typeIdx, t)
			return err
		case 2: // sample: Sample{location_id=1, value=2}
			var s sample
			err := eachField(b, func(n int, v uint64, pb []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, v, pb)
				case 2:
					var vs []uint64
					if err := appendVarints(&vs, v, pb); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location: Location{id=1, line=4{function_id=1}}
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(lb, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // function: Function{id=1, name=2}
			var id uint64
			name := int64(-1)
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, i := range typeIdx {
		if i < 0 || int(i) >= len(p.strings) {
			return nil, errors.New("sample type names a missing string")
		}
		p.sampleTypes = append(p.sampleTypes, p.strings[i])
	}
	return p, nil
}

// eachField walks a protobuf message, calling fn with each field's
// number and either its varint value (wire types 0, 1, 5) or its bytes
// (wire type 2, b non-nil).
func eachField(data []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad field key")
		}
		data = data[n:]
		num, wt := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wt {
		case 0:
			if v, n = binary.Uvarint(data); n <= 0 {
				return errors.New("bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("truncated fixed64 field")
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case 5:
			if len(data) < 4 {
				return errors.New("truncated fixed32 field")
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("truncated bytes field")
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wt)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (b non-nil) or
// not.
func appendVarints(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
