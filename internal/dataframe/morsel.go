package dataframe

// Morsel-driven scan units. A morsel is a fixed-size contiguous row range of
// a table — the granularity at which the query engine runs its scans: each
// full-table pass walks the table morsel by morsel, checking cancellation and
// bumping scan counters at every boundary. Column accessors serve a morsel
// zero-copy: the bulk slices (FloatData, IntData, StrData, BoolData,
// ValidData) subslice to [lo:hi] without copying, so a morsel is pure
// bookkeeping.

// DefaultMorselRows is the default morsel size. Large enough that per-morsel
// bookkeeping (a counter bump and a cancellation check) is noise, small enough
// that a scan over a large table observes cancellation promptly and a future
// delta-maintenance or mmap layer can work in morsel units.
const DefaultMorselRows = 4096

// MorselBounds returns the [lo, hi) row ranges a table of nrows rows splits
// into under the given morsel size; size <= 0 means DefaultMorselRows. The
// ranges cover 0..nrows exactly, in order, without overlap.
func MorselBounds(nrows, size int) [][2]int {
	if size <= 0 {
		size = DefaultMorselRows
	}
	if nrows <= 0 {
		return nil
	}
	bounds := make([][2]int, 0, (nrows+size-1)/size)
	for lo := 0; lo < nrows; lo += size {
		hi := lo + size
		if hi > nrows {
			hi = nrows
		}
		bounds = append(bounds, [2]int{lo, hi})
	}
	return bounds
}
