package dataframe

import (
	"testing"
)

func TestMorselBounds(t *testing.T) {
	cases := []struct {
		nrows, size int
		want        [][2]int
	}{
		{0, 4, nil},
		{-3, 4, nil},
		{1, 4, [][2]int{{0, 1}}},
		{4, 4, [][2]int{{0, 4}}},
		{5, 4, [][2]int{{0, 4}, {4, 5}}},
		{12, 4, [][2]int{{0, 4}, {4, 8}, {8, 12}}},
		{10, 3, [][2]int{{0, 3}, {3, 6}, {6, 9}, {9, 10}}},
	}
	for _, c := range cases {
		got := MorselBounds(c.nrows, c.size)
		if len(got) != len(c.want) {
			t.Fatalf("MorselBounds(%d, %d) = %v, want %v", c.nrows, c.size, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("MorselBounds(%d, %d) = %v, want %v", c.nrows, c.size, got, c.want)
			}
		}
	}
	// size <= 0 selects the default: one bound per DefaultMorselRows rows,
	// covering every row exactly once.
	bounds := MorselBounds(DefaultMorselRows+1, 0)
	if len(bounds) != 2 || bounds[0] != [2]int{0, DefaultMorselRows} || bounds[1] != [2]int{DefaultMorselRows, DefaultMorselRows + 1} {
		t.Fatalf("default-size bounds = %v", bounds)
	}
}
