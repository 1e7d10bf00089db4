package bitset

import "testing"

func benchPair(n int) (*Set, *Set) {
	a, b := New(n), New(n)
	for i := 0; i < n; i += 3 {
		a.Add(i)
	}
	for i := 0; i < n; i += 5 {
		b.Add(i)
	}
	return a, b
}

func BenchmarkIntersectWith64k(bm *testing.B) {
	a, b := benchPair(1 << 16)
	bm.ReportAllocs()
	for i := 0; i < bm.N; i++ {
		a.IntersectWith(b)
	}
}

func BenchmarkCount64k(bm *testing.B) {
	a, _ := benchPair(1 << 16)
	var sink int
	for i := 0; i < bm.N; i++ {
		sink += a.Count()
	}
	_ = sink
}

func BenchmarkIntersectCount64k(bm *testing.B) {
	a, b := benchPair(1 << 16)
	var sink int
	for i := 0; i < bm.N; i++ {
		sink += a.IntersectCount(b)
	}
	_ = sink
}
