package query

// Word-parallel (SWAR) scan kernels: every narrow code predicate (string
// equality over the uint8/uint16 dictionary mirror, small-int ranges over the
// domain probe's codes) runs here. They process a full 64-bit word per step —
// 8 uint8 codes or 4 uint16 codes — using carry-free byte/lane arithmetic, so
// a 64-row bitmap word costs 8 (or 16) word ops instead of 64 scalar
// compares. Three tricks, all branch-free within a word:
//
//   - Zero-lane detection: for v with lane width L and lowM the repeated
//     (2^(L-1)-1) mask, y = ^(((v&lowM)+lowM) | v | lowM) has exactly the
//     lane high bit set where the lane is zero. XOR with the broadcast target
//     first and zero lanes become equality matches.
//   - Unsigned per-lane x >= K without carries: split on the lane high bit.
//     For K <= 2^(L-1) the low bits plus (2^(L-1)-K) overflow into the high
//     position iff low >= K, OR-ed with x's own high bit; for larger K the
//     high bit must already be set and the low-bit overflow is AND-ed in. Lane
//     sums stay < 2^L, so lanes never contaminate each other. A closed
//     interval [lo,hi] is ge(lo) &^ ge(hi+1).
//   - Movemask: the high-bit flags multiply-shift down to one bit per lane
//     (8-lane: ((y>>7) * 0x0102040810204080) >> 56 routes flag k to bit k).
//
// Each kernel's contract is the one-compare-per-row loop: full words go
// word-parallel, the ragged tail falls back to a scalar loop, and every
// output word is AND-ed with the validity bitmap. swar_test.go keeps scalar
// reference kernels and checks the bitmaps bit for bit against them.

import "encoding/binary"

const (
	lanes8    = 0x0101010101010101 // 1 in every byte
	low7      = 0x7f7f7f7f7f7f7f7f // low 7 bits of every byte
	high8     = 0x8080808080808080 // high bit of every byte
	movemaskM = 0x0102040810204080 // routes byte-k low bit to output bit k

	lanes16 = 0x0001000100010001 // 1 in every uint16 lane
	low15   = 0x7fff7fff7fff7fff // low 15 bits of every lane
	high16  = 0x8000800080008000 // high bit of every lane
)

// movemask8 compresses per-byte high-bit flags into one bit per byte.
func movemask8(y uint64) uint64 {
	return ((y >> 7) * movemaskM) >> 56
}

// movemask16 compresses per-uint16 high-bit flags into one bit per lane.
func movemask16(y uint64) uint64 {
	return (y>>15)&1 | (y>>30)&2 | (y>>45)&4 | (y>>60)&8
}

// zeroBytes flags (high bit set) every zero byte of v.
func zeroBytes(v uint64) uint64 {
	return ^(((v & low7) + low7) | v | low7)
}

// zeroLanes16 flags (high bit set) every zero uint16 lane of v.
func zeroLanes16(v uint64) uint64 {
	return ^(((v & low15) + low15) | v | low15)
}

// geBytes flags every byte of x that is >= k, for k in [0, 256].
func geBytes(x uint64, k int) uint64 {
	switch {
	case k <= 0:
		return high8
	case k <= 128:
		return (x | ((x &^ high8) + uint64(128-k)*lanes8)) & high8
	case k <= 255:
		return (x & ((x &^ high8) + uint64(256-k)*lanes8)) & high8
	default:
		return 0
	}
}

// geLanes16 flags every uint16 lane of x that is >= k, for k in [0, 65536].
func geLanes16(x uint64, k int) uint64 {
	switch {
	case k <= 0:
		return high16
	case k <= 0x8000:
		return (x | ((x &^ high16) + uint64(0x8000-k)*lanes16)) & high16
	case k <= 0xffff:
		return (x & ((x &^ high16) + uint64(0x10000-k)*lanes16)) & high16
	default:
		return 0
	}
}

// load16x4 packs four consecutive uint16 codes into lane order (code i in
// bits [16i, 16i+16)), independent of host endianness.
func load16x4(c []uint16) uint64 {
	return uint64(c[0]) | uint64(c[1])<<16 | uint64(c[2])<<32 | uint64(c[3])<<48
}

// swarEqBits8 fills bm with the rows whose uint8 code equals target, masked
// to valid rows: 8 codes per step.
func swarEqBits8(codes []uint8, vbits []uint64, target uint8, bm []uint64) {
	n := len(codes)
	pat := uint64(target) * lanes8
	for wi := range bm {
		base := wi << 6
		var w uint64
		if base+64 <= n {
			for k := 0; k < 8; k++ {
				x := binary.LittleEndian.Uint64(codes[base+k*8:])
				w |= movemask8(zeroBytes(x^pat)) << uint(k*8)
			}
		} else {
			for i := base; i < n; i++ {
				var b uint64
				if codes[i] == target {
					b = 1
				}
				w |= b << uint(i-base)
			}
		}
		bm[wi] = w & vbits[wi]
	}
}

// swarEqBits16 is swarEqBits8 over uint16 codes: 4 codes per step.
func swarEqBits16(codes []uint16, vbits []uint64, target uint16, bm []uint64) {
	n := len(codes)
	pat := uint64(target) * lanes16
	for wi := range bm {
		base := wi << 6
		var w uint64
		if base+64 <= n {
			for k := 0; k < 16; k++ {
				x := load16x4(codes[base+k*4:])
				w |= movemask16(zeroLanes16(x^pat)) << uint(k*4)
			}
		} else {
			for i := base; i < n; i++ {
				var b uint64
				if codes[i] == target {
					b = 1
				}
				w |= b << uint(i-base)
			}
		}
		bm[wi] = w & vbits[wi]
	}
}

// swarRangeBits8 fills bm with the rows whose uint8 code lies in [lo, hi]
// (lo <= hi), masked to valid rows: ge(lo) minus ge(hi+1), 8 codes per step.
func swarRangeBits8(codes []uint8, vbits []uint64, lo, hi uint8, bm []uint64) {
	n := len(codes)
	klo, khi := int(lo), int(hi)+1
	span := hi - lo
	for wi := range bm {
		base := wi << 6
		var w uint64
		if base+64 <= n {
			for k := 0; k < 8; k++ {
				x := binary.LittleEndian.Uint64(codes[base+k*8:])
				flags := geBytes(x, klo) &^ geBytes(x, khi)
				w |= movemask8(flags) << uint(k*8)
			}
		} else {
			for i := base; i < n; i++ {
				var b uint64
				if codes[i]-lo <= span {
					b = 1
				}
				w |= b << uint(i-base)
			}
		}
		bm[wi] = w & vbits[wi]
	}
}

// swarRangeBits16 is swarRangeBits8 over uint16 codes: 4 codes per step.
func swarRangeBits16(codes []uint16, vbits []uint64, lo, hi uint16, bm []uint64) {
	n := len(codes)
	klo, khi := int(lo), int(hi)+1
	span := hi - lo
	for wi := range bm {
		base := wi << 6
		var w uint64
		if base+64 <= n {
			for k := 0; k < 16; k++ {
				x := load16x4(codes[base+k*4:])
				flags := geLanes16(x, klo) &^ geLanes16(x, khi)
				w |= movemask16(flags) << uint(k*4)
			}
		} else {
			for i := base; i < n; i++ {
				var b uint64
				if codes[i]-lo <= span {
					b = 1
				}
				w |= b << uint(i-base)
			}
		}
		bm[wi] = w & vbits[wi]
	}
}
