package bitset

import "testing"

// view wraps words as the single set of capacity n that ViewsOver
// carves from them.
func view(n int, words []uint64) (*Set, error) {
	sets, err := ViewsOver(n, 1, words)
	if err != nil {
		return nil, err
	}
	return &sets[0], nil
}

func TestViewRoundTrip(t *testing.T) {
	src := New(130)
	for _, v := range []int{0, 63, 64, 100, 129} {
		src.Add(v)
	}
	words := make([]uint64, len(src.Words()))
	copy(words, src.Words())
	v, err := view(130, words)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(src) {
		t.Fatalf("view %v != source %v", v, src)
	}
	if v.Count() != 5 || !v.Contains(129) || v.Contains(128) {
		t.Fatalf("view content wrong: %v", v)
	}
}

func TestViewRejectsBadShapes(t *testing.T) {
	if _, err := view(130, make([]uint64, 2)); err == nil {
		t.Fatal("ViewsOver accepted short word array")
	}
	if _, err := view(130, make([]uint64, 4)); err == nil {
		t.Fatal("ViewsOver accepted long word array")
	}
	bad := make([]uint64, 3)
	bad[2] = 1 << 10 // bit 138 ≥ capacity 130
	if _, err := view(130, bad); err == nil {
		t.Fatal("ViewsOver accepted stray tail bits")
	}
	if v, err := view(0, nil); err != nil || v.Count() != 0 {
		t.Fatalf("ViewsOver(0, 1, nil) = %v, %v", v, err)
	}
}

func TestViewsOverMirrorsNewSlab(t *testing.T) {
	const n, k = 100, 5
	slab := NewSlab(n, k)
	stride := (n + 63) / 64
	arena := make([]uint64, stride*k)
	for i := range slab {
		for v := i; v < n; v += i + 1 {
			slab[i].Add(v)
		}
		copy(arena[i*stride:(i+1)*stride], slab[i].Words())
	}
	views, err := ViewsOver(n, k, arena)
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != k {
		t.Fatalf("got %d views", len(views))
	}
	for i := range views {
		if !views[i].Equal(&slab[i]) {
			t.Fatalf("view %d mismatch: %v vs %v", i, &views[i], &slab[i])
		}
	}
}

func TestViewsOverRejectsBadArena(t *testing.T) {
	if _, err := ViewsOver(100, 5, make([]uint64, 9)); err == nil {
		t.Fatal("ViewsOver accepted wrong arena length")
	}
	arena := make([]uint64, 2*2)
	arena[1] = 1 << 63 // bit 127 ≥ capacity 100 in set 0
	if _, err := ViewsOver(100, 2, arena); err == nil {
		t.Fatal("ViewsOver accepted stray tail bits")
	}
	if _, err := ViewsOver(-1, 2, nil); err == nil {
		t.Fatal("ViewsOver accepted negative capacity")
	}
	views, err := ViewsOver(64, 0, nil)
	if err != nil || len(views) != 0 {
		t.Fatalf("ViewsOver(64, 0) = %v, %v", views, err)
	}
}
