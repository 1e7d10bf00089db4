package core

import (
	"fmt"
	"slices"
	"testing"
)

// TestIDsGolden pins SetID and Pattern.ID to the values every export,
// index and snapshot has carried: an id is a stable key, so a change
// that moves one breaks every stored reference to it.
func TestIDsGolden(t *testing.T) {
	long := make([]string, 20) // more names than SetID sorts on its stack
	for i := range long {
		long[i] = fmt.Sprintf("w%02d", 19-i)
	}
	for _, c := range []struct {
		names []string
		want  string
	}{
		{nil, "cbf29ce484222325"},
		{[]string{""}, "af63bd4c8601b7df"},
		{[]string{"A"}, "0908a207b5a15704"},
		{[]string{"A", "B"}, "acb6188cd5c60c36"},
		{[]string{"B", "A"}, "acb6188cd5c60c36"},
		{[]string{"venue:KDD", "term:graph", "term:mining"}, "92194b994dd2b4e7"},
		{[]string{"é", "a\x00b", "ab"}, "67ff5e484d0f1015"},
		{[]string{"x", "x"}, "4b06685278bf7025"},
		{long, "00c490bb1cdbd1ed"},
	} {
		in := slices.Clone(c.names)
		if got := SetID(c.names); got != c.want {
			t.Errorf("SetID(%q) = %s, want %s", c.names, got, c.want)
		}
		if !slices.Equal(in, c.names) {
			t.Errorf("SetID reordered its argument: %q, was %q", c.names, in)
		}
	}
	for _, c := range []struct {
		p    Pattern
		want string
	}{
		{Pattern{Names: []string{"A", "B"}, Vertices: []int32{6, 7, 8, 9, 10, 11}}, "9d3897395e05e09a"},
		{Pattern{}, "f6186a006cdd5a7f"},
		{Pattern{Names: []string{"B", "A"}, Vertices: []int32{0, 1 << 20, 70000}}, "56fdd3558a55bc89"},
		{Pattern{Names: long, Vertices: []int32{3}}, "0b85f2efd369c1e8"},
	} {
		if got := c.p.ID(); got != c.want {
			t.Errorf("Pattern{%q, %v}.ID() = %s, want %s", c.p.Names, c.p.Vertices, got, c.want)
		}
	}
}
