package query

// Code-based scan kernels. Every string column is dictionary codes (see
// dataframe.DictEncoding), so a string equality predicate resolves its
// operand to a code once and compares codes: word-parallel over the uint8 or
// uint16 mirror (see swar.go), or one uint32 compare per row for domains
// wider than 65536 values. Int/time range predicates compare raw int64s, or,
// when the cached domain probe admits a small width, uint8/uint16 codes,
// against exact integer bounds. The kernels build each 64-row bitmap word
// branch-free and AND it with the column's validity bitmap, so the predicate
// hot loop carries no per-row branch and no string compares at all. Codes
// never shift on append, so a predicate's code stays valid for the life of
// the column.

import (
	"math"

	"repro/internal/dataframe"
)

// noteCodePred records one predicate bitmap built through the code kernels.
func (e *Executor) noteCodePred() {
	e.mu.Lock()
	e.stats.CodePredScans++
	e.mu.Unlock()
}

// noteSwarPred records one predicate bitmap built word-parallel (a subset of
// the CodePredScans count).
func (e *Executor) noteSwarPred() {
	e.mu.Lock()
	e.stats.SwarPredScans++
	e.mu.Unlock()
}

// eqCode32Bits fills bm one 64-row word at a time with the rows whose
// full-width code equals target, masked to valid rows.
func eqCode32Bits(codes []uint32, vbits []uint64, target uint32, bm []uint64) {
	n := len(codes)
	for wi := range bm {
		lo := wi << 6
		hi := lo + 64
		if hi > n {
			hi = n
		}
		var w uint64
		for i := lo; i < hi; i++ {
			var b uint64
			if codes[i] == target {
				b = 1
			}
			w |= b << uint(i-lo)
		}
		bm[wi] = w & vbits[wi]
	}
}

// rangeInt64Bits is the full-width range kernel: lo <= vals[i] <= hi over the
// raw int64 column, masked to valid rows.
func rangeInt64Bits(vals []int64, vbits []uint64, lo, hi int64, bm []uint64) {
	n := len(vals)
	for wi := range bm {
		wlo := wi << 6
		whi := wlo + 64
		if whi > n {
			whi = n
		}
		var w uint64
		for i := wlo; i < whi; i++ {
			v := vals[i]
			var b uint64
			if v >= lo && v <= hi {
				b = 1
			}
			w |= b << uint(i-wlo)
		}
		bm[wi] = w & vbits[wi]
	}
}

// dictEqBitsFrom fills bm for rows [lo, n) with the rows whose code equals
// code, dispatching to the narrowest code lane the encoding carries. lo is a
// multiple of 64 (or 0): the kernels run over the word-aligned subslices, so
// a delta advance pays only for the appended words. It reports whether a
// word-parallel (SWAR) kernel ran.
func dictEqBitsFrom(enc *dataframe.DictEncoding, code uint32, bm []uint64, lo int) bool {
	w0 := lo >> 6
	vbits := enc.ValidBits()[w0:]
	sub := bm[w0:]
	switch {
	case enc.Codes8() != nil:
		swarEqBits8(enc.Codes8()[lo:], vbits, uint8(code), sub)
	case enc.Codes16() != nil:
		swarEqBits16(enc.Codes16()[lo:], vbits, uint16(code), sub)
	default:
		eqCode32Bits(enc.Codes()[lo:], vbits, code, sub)
		return false
	}
	return true
}

// twoPow63 is 2^63 as a float64 (exact). float64(math.MaxInt64) rounds UP to
// this value, so a float bound >= twoPow63 exceeds every int64 and a bound
// of exactly -twoPow63 equals math.MinInt64.
const twoPow63 = float64(1<<62) * 2

// intRangeBounds converts a float range predicate into the equivalent
// inclusive int64 interval: float64(v) >= Lo iff v >= ceil(Lo), float64(v)
// <= Hi iff v <= floor(Hi) — exact whenever |v| <= 2^53, which the intOK
// probe gate guarantees. empty means no integer can satisfy the predicate
// (NaN bounds included, matching the float kernels where every compare
// against NaN fails).
func intRangeBounds(p Predicate) (lo, hi int64, empty bool) {
	lo, hi = math.MinInt64, math.MaxInt64
	if p.HasLo {
		c := math.Ceil(p.Lo)
		switch {
		case math.IsNaN(c) || c >= twoPow63:
			return 0, 0, true
		case c >= -twoPow63:
			lo = int64(c)
		}
	}
	if p.HasHi {
		f := math.Floor(p.Hi)
		switch {
		case math.IsNaN(f) || f < -twoPow63:
			return 0, 0, true
		case f < twoPow63:
			hi = int64(f)
		}
	}
	return lo, hi, lo > hi
}

// intRangeBitsFrom serves a range predicate over an int/time column for rows
// [row0, n), row0 word-aligned, from the domain probe's integer state: exact
// integer bounds, then the narrowest kernel the probe admits: uint8/uint16
// codes, word-parallel, when the column's width fits the counting domain, raw
// int64 compares otherwise. It reports whether a word-parallel (SWAR) kernel
// ran. The domain clamp uses the CURRENT observed bounds; a grown domain only
// widens the clamp, and the underlying integer interval is unchanged, so
// delta-recomputed boundary-word rows keep their bits.
func intRangeBitsFrom(dom *domainEntry, p Predicate, bm []uint64, row0 int) bool {
	lo, hi, empty := intRangeBounds(p)
	if empty {
		return false
	}
	// Clamp to the observed domain so code arithmetic cannot underflow; an
	// interval that misses the domain entirely selects nothing.
	if lo < dom.mn {
		lo = dom.mn
	}
	if hi > dom.mx {
		hi = dom.mx
	}
	if lo > hi {
		return false
	}
	w0 := row0 >> 6
	vbits := dom.vbits[w0:]
	sub := bm[w0:]
	switch {
	case dom.ncodes8 != nil:
		swarRangeBits8(dom.ncodes8[row0:], vbits, uint8(lo-dom.base), uint8(hi-dom.base), sub)
	case dom.ncodes16 != nil:
		swarRangeBits16(dom.ncodes16[row0:], vbits, uint16(lo-dom.base), uint16(hi-dom.base), sub)
	default:
		rangeInt64Bits(dom.ivals[row0:], vbits, lo, hi, sub)
		return false
	}
	return true
}
