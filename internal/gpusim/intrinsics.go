package gpusim

import "math/bits"

// Warp-level primitives (__shfl_down_sync, __ballot_sync, warp
// reductions): register-to-register exchanges that cost issue time only —
// no memory traffic. Lane values are modelled as explicit slices, one
// element per active lane.

// ShflDownU64 shifts each lane's value down by delta lanes (lane i
// receives lane i+delta's value; upper lanes keep their own, as the
// hardware intrinsic does out-of-range). One warp instruction.
func (w *Warp) ShflDownU64(vals []uint64, delta int) []uint64 {
	w.sync()
	w.issue(1, false)
	out := make([]uint64, len(vals))
	for i := range vals {
		j := i + delta
		if j < len(vals) {
			out[i] = vals[j]
		} else {
			out[i] = vals[i]
		}
	}
	return out
}

// WarpReduceAddU64 sums one value per lane using the log2(width) shuffle
// ladder; every lane would hold partial results, lane 0's total is
// returned.
func (w *Warp) WarpReduceAddU64(vals []uint64) uint64 {
	cur := append([]uint64(nil), vals...)
	for delta := nextPow2(len(cur)) / 2; delta > 0; delta /= 2 {
		shifted := w.ShflDownU64(cur, delta)
		w.issue(1, false) // the add
		for i := range cur {
			if i+delta < len(cur) {
				cur[i] += shifted[i]
			}
		}
	}
	if len(cur) == 0 {
		return 0
	}
	return cur[0]
}

// Ballot returns a bitmask of the lanes whose predicate is true. One warp
// instruction.
func (w *Warp) Ballot(pred []bool) uint32 {
	w.sync()
	w.issue(1, false)
	var mask uint32
	for i, p := range pred {
		if p {
			mask |= 1 << uint(i)
		}
	}
	return mask
}

// Any reports whether any lane's predicate is true (__any_sync).
func (w *Warp) Any(pred []bool) bool { return w.Ballot(pred) != 0 }

// All reports whether every lane's predicate is true (__all_sync).
func (w *Warp) All(pred []bool) bool {
	full := uint32(1)<<uint(len(pred)) - 1
	return w.Ballot(pred) == full
}

// PopcLanes counts the true lanes (ballot + popc).
func (w *Warp) PopcLanes(pred []bool) int {
	m := w.Ballot(pred)
	w.issue(1, false)
	return bits.OnesCount32(m)
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p *= 2
	}
	return p
}
