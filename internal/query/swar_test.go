package query

import (
	"math/rand"
	"testing"
)

// eqCodeBits is the scalar reference the word-parallel equality kernels must
// reproduce: one code compare per row, each 64-row word masked to valid rows.
func eqCodeBits[T ~uint8 | ~uint16](codes []T, vbits []uint64, target T, bm []uint64) {
	n := len(codes)
	for wi := range bm {
		lo := wi << 6
		hi := min(lo+64, n)
		var w uint64
		for i := lo; i < hi; i++ {
			if codes[i] == target {
				w |= 1 << uint(i-lo)
			}
		}
		bm[wi] = w & vbits[wi]
	}
}

// rangeCodeBits is the scalar reference of the word-parallel range kernels:
// lo <= code <= hi per row (lo <= hi), masked to valid rows.
func rangeCodeBits[T ~uint8 | ~uint16](codes []T, vbits []uint64, lo, hi T, bm []uint64) {
	n := len(codes)
	for wi := range bm {
		wlo := wi << 6
		whi := min(wlo+64, n)
		var w uint64
		for i := wlo; i < whi; i++ {
			if codes[i] >= lo && codes[i] <= hi {
				w |= 1 << uint(i-wlo)
			}
		}
		bm[wi] = w & vbits[wi]
	}
}

// randValidBits builds a random validity bitmap for n rows (tail bits beyond n
// are zero, matching DictEncoding.ValidBits).
func randValidBits(rng *rand.Rand, n int) []uint64 {
	vb := make([]uint64, (n+63)/64)
	for i := 0; i < n; i++ {
		if rng.Float64() > 0.2 {
			vb[i>>6] |= 1 << uint(i&63)
		}
	}
	return vb
}

// TestSwarEqMatchesScalar checks the word-parallel equality kernels against
// the scalar reference over random code arrays — lengths crossing word
// boundaries (ragged tails), every byte/lane value class as target.
func TestSwarEqMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{0, 1, 7, 63, 64, 65, 127, 128, 200, 1024, 1000} {
		vb := randValidBits(rng, n)
		c8 := make([]uint8, n)
		c16 := make([]uint16, n)
		for i := range c8 {
			c8[i] = uint8(rng.Intn(256))
			c16[i] = uint16(rng.Intn(65536))
		}
		for _, target := range []int{0, 1, 42, 127, 128, 129, 254, 255} {
			want := make([]uint64, (n+63)/64)
			got := make([]uint64, (n+63)/64)
			eqCodeBits(c8, vb, uint8(target), want)
			swarEqBits8(c8, vb, uint8(target), got)
			for wi := range want {
				if got[wi] != want[wi] {
					t.Fatalf("eq8 n=%d target=%d word %d: got %016x want %016x", n, target, wi, got[wi], want[wi])
				}
			}
		}
		for _, target := range []int{0, 1, 0x7fff, 0x8000, 0x8001, 0xfffe, 0xffff, 300} {
			want := make([]uint64, (n+63)/64)
			got := make([]uint64, (n+63)/64)
			eqCodeBits(c16, vb, uint16(target), want)
			swarEqBits16(c16, vb, uint16(target), got)
			for wi := range want {
				if got[wi] != want[wi] {
					t.Fatalf("eq16 n=%d target=%d word %d: got %016x want %016x", n, target, wi, got[wi], want[wi])
				}
			}
		}
	}
}

// TestSwarRangeMatchesScalar checks the word-parallel range kernels against
// the scalar reference, sweeping bounds across every ge-mode boundary (the
// high-bit split at 128 / 0x8000 and the saturating ends).
func TestSwarRangeMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	bounds8 := []int{0, 1, 2, 100, 126, 127, 128, 129, 200, 254, 255}
	bounds16 := []int{0, 1, 255, 256, 0x7ffe, 0x7fff, 0x8000, 0x8001, 0xfff0, 0xfffe, 0xffff}
	for _, n := range []int{0, 1, 63, 64, 65, 200, 777} {
		vb := randValidBits(rng, n)
		c8 := make([]uint8, n)
		c16 := make([]uint16, n)
		for i := range c8 {
			c8[i] = uint8(rng.Intn(256))
			c16[i] = uint16(rng.Intn(65536))
		}
		for _, lo := range bounds8 {
			for _, hi := range bounds8 {
				if hi < lo {
					continue
				}
				want := make([]uint64, (n+63)/64)
				got := make([]uint64, (n+63)/64)
				rangeCodeBits(c8, vb, uint8(lo), uint8(hi), want)
				swarRangeBits8(c8, vb, uint8(lo), uint8(hi), got)
				for wi := range want {
					if got[wi] != want[wi] {
						t.Fatalf("range8 n=%d [%d,%d] word %d: got %016x want %016x", n, lo, hi, wi, got[wi], want[wi])
					}
				}
			}
		}
		for _, lo := range bounds16 {
			for _, hi := range bounds16 {
				if hi < lo {
					continue
				}
				want := make([]uint64, (n+63)/64)
				got := make([]uint64, (n+63)/64)
				rangeCodeBits(c16, vb, uint16(lo), uint16(hi), want)
				swarRangeBits16(c16, vb, uint16(lo), uint16(hi), got)
				for wi := range want {
					if got[wi] != want[wi] {
						t.Fatalf("range16 n=%d [%d,%d] word %d: got %016x want %016x", n, lo, hi, wi, got[wi], want[wi])
					}
				}
			}
		}
	}
}

// TestSwarHelpers pins the helper primitives directly: the movemask routing,
// zero-lane detection and per-lane unsigned >= across all mode boundaries.
func TestSwarHelpers(t *testing.T) {
	if got := movemask8(0x8080808080808080); got != 0xff {
		t.Errorf("movemask8(all flags) = %#x, want 0xff", got)
	}
	for k := 0; k < 8; k++ {
		if got := movemask8(0x80 << uint(k*8)); got != 1<<uint(k) {
			t.Errorf("movemask8(flag %d) = %#x, want %#x", k, got, 1<<uint(k))
		}
	}
	for k := 0; k < 4; k++ {
		if got := movemask16(0x8000 << uint(k*16)); got != 1<<uint(k) {
			t.Errorf("movemask16(flag %d) = %#x, want %#x", k, got, 1<<uint(k))
		}
	}
	// Exhaustive single-byte ge against the scalar truth for every (x, k).
	for x := 0; x < 256; x++ {
		for k := 0; k <= 256; k++ {
			word := uint64(x) * lanes8 // broadcast: every byte must agree
			got := geBytes(word, k) != 0
			if want := x >= k; got != want {
				t.Fatalf("geBytes(%d, %d) = %v, want %v", x, k, got, want)
			}
		}
	}
	// Lane ge sampled across the 16-bit boundaries plus random probes.
	rng := rand.New(rand.NewSource(7))
	probe16 := []int{0, 1, 0x7fff, 0x8000, 0x8001, 0xffff}
	for i := 0; i < 4000; i++ {
		probe16 = append(probe16, rng.Intn(65536))
	}
	ks := []int{0, 1, 0x7fff, 0x8000, 0x8001, 0xffff, 0x10000}
	for i := 0; i < 200; i++ {
		ks = append(ks, rng.Intn(0x10001))
	}
	for _, x := range probe16 {
		for _, k := range ks {
			word := uint64(x) * lanes16
			got := geLanes16(word, k) != 0
			if want := x >= k; got != want {
				t.Fatalf("geLanes16(%d, %d) = %v, want %v", x, k, got, want)
			}
		}
	}
	// Zero detection over random mixed words.
	for i := 0; i < 2000; i++ {
		var w uint64
		var wantBytes uint64
		for b := 0; b < 8; b++ {
			v := uint64(rng.Intn(256))
			if rng.Float64() < 0.3 {
				v = 0
			}
			w |= v << uint(b*8)
			if v == 0 {
				wantBytes |= 1 << uint(b)
			}
		}
		if got := movemask8(zeroBytes(w)); got != wantBytes {
			t.Fatalf("zeroBytes(%016x) mask = %#x, want %#x", w, got, wantBytes)
		}
	}
	for i := 0; i < 2000; i++ {
		var w uint64
		var wantLanes uint64
		for l := 0; l < 4; l++ {
			v := uint64(rng.Intn(65536))
			if rng.Float64() < 0.3 {
				v = 0
			}
			w |= v << uint(l*16)
			if v == 0 {
				wantLanes |= 1 << uint(l)
			}
		}
		if got := movemask16(zeroLanes16(w)); got != wantLanes {
			t.Fatalf("zeroLanes16(%016x) mask = %#x, want %#x", w, got, wantLanes)
		}
	}
}
