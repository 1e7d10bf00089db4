package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"
)

// idName names attribute id a in the gather tests, whose ids reach far
// beyond any graph's attributes.
func idName(a int32) string { return strconv.Itoa(int(a)) }

// gatherReference is what gather must produce from buckets: every row
// in storage order, then stably sorted by CompareAttrs.
func gatherReference(buckets []*bucket) []AttributeSet {
	var out []AttributeSet
	eachRow(buckets, func(b *bucket, r *row) {
		attrs := b.ids[r.chunk][r.off : r.off+r.size]
		names := make([]string, len(attrs))
		for i, a := range attrs {
			names[i] = idName(a)
		}
		var set AttributeSet
		r.put(&set, attrs, names)
		out = append(out, set)
	})
	slices.SortStableFunc(out, func(a, b AttributeSet) int { return CompareAttrs(a.Attrs, b.Attrs) })
	return out
}

// randomBuckets fills 0–5 buckets, some nil or empty, with rows of
// 1–20 distinct ascending ids: small ids in some buckets, ids up to 2^24 in
// others, so a radix sort needs three digits per position and skips the
// digits every row shares. A tenth of the rows repeat an earlier row's
// ids and three tenths replace one id of an earlier row's, so rows tie
// on prefixes of every length; each row's support is its storage index,
// so the order of tied rows shows.
func randomBuckets(rng *rand.Rand, rows int) []*bucket {
	buckets := make([]*bucket, rng.Intn(6))
	var seen [][]int32
	idx := 0
	for i := range buckets {
		if rng.Intn(5) == 0 {
			continue
		}
		b := &bucket{}
		buckets[i] = b
		top := int32(300)
		if rng.Intn(2) == 0 {
			top = 1 << 24
		}
		for range rng.Intn(rows + 1) {
			var attrs []int32
			switch k := rng.Intn(10); {
			case len(seen) > 0 && k == 0:
				attrs = seen[rng.Intn(len(seen))]
			case len(seen) > 0 && k <= 3:
				// An earlier row with one id replaced: sorted, the two
				// tie on every position before the replaced id's.
				attrs = slices.Clone(seen[rng.Intn(len(seen))])
				a := rng.Int31n(top)
				for slices.Contains(attrs, a) {
					a = rng.Int31n(top)
				}
				attrs[rng.Intn(len(attrs))] = a
			default:
				// Most rows have 8 ids, so that size's group is large
				// enough to take the radix path.
				size := 8
				if rng.Intn(2) == 0 {
					size = 1 + rng.Intn(20)
				}
				for len(attrs) < size {
					if a := rng.Int31n(top); !slices.Contains(attrs, a) {
						attrs = append(attrs, a)
					}
				}
			}
			slices.Sort(attrs)
			seen = append(seen, attrs)
			b.add(&row{support: int32(idx), epsilon: rng.Float64()}, attrs)
			idx++
		}
	}
	return buckets
}

// TestGatherMatchesSortReference checks gather's radix order against a
// stable comparison sort on random buckets — sets of 1–20 ids, ids of
// three radix digits, duplicates — and on nil and empty buckets and a
// single row. TestSinkSetsRetained checks it on the rows MineNaive,
// Mine and Remine collect.
func TestGatherMatchesSortReference(t *testing.T) {
	one := &bucket{}
	one.add(&row{support: 7}, []int32{3, 1 << 21})
	cases := map[string][]*bucket{
		"nil":        nil,
		"nil bucket": {nil},
		"empty":      {{}, nil, {}},
		"single row": {nil, one, {}},
	}
	rng := rand.New(rand.NewSource(1))
	for trial := range 40 {
		cases[fmt.Sprintf("random %d", trial)] = randomBuckets(rng, 1500)
	}
	for name, buckets := range cases {
		var res Result
		res.gather(buckets, idName)
		want := gatherReference(buckets)
		if len(res.Sets) != len(want) {
			t.Fatalf("%s: %d sets, want %d", name, len(res.Sets), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(res.Sets[i], want[i]) {
				t.Fatalf("%s: set %d\ngot:  %+v\nwant: %+v", name, i, res.Sets[i], want[i])
			}
		}
	}
}

// TestSinkSetsRetained keeps every set a sink receives and checks, after
// the run and after a later Remine, that the kept sets are exactly the
// result's rows: sorted by CompareAttrs, each equals the row at its
// rank field by field, Names included. A sink may retain what it gets,
// so nothing the run writes later may change it; and the sorted stream
// of the walked rows is gather's reference order.
func TestSinkSetsRetained(t *testing.T) {
	ctx := context.Background()
	type kept struct {
		sets []AttributeSet
		res  *Result
	}
	keep := func(k *kept) Sink {
		return SinkFuncs{AttributeSet: func(s AttributeSet) { k.sets = append(k.sets, s) }}
	}
	check := func(label string, k *kept) {
		t.Helper()
		got := slices.Clone(k.sets)
		slices.SortFunc(got, func(a, b AttributeSet) int { return CompareAttrs(a.Attrs, b.Attrs) })
		if len(got) != len(k.res.Sets) {
			t.Fatalf("%s: sink kept %d sets, result has %d", label, len(got), len(k.res.Sets))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], k.res.Sets[i]) {
				t.Fatalf("%s: kept set %d\ngot:  %+v\nwant: %+v", label, i, got[i], k.res.Sets[i])
			}
		}
	}
	for trial := range 3 {
		g := remineGraph(t, int64(700+trial))
		rng := rand.New(rand.NewSource(int64(800 + trial)))
		ng, cs, err := g.Apply(randomRemineDelta(t, g, rng))
		if err != nil {
			t.Fatal(err)
		}
		for mode, p := range remineParams() {
			for _, par := range []int{1, 4} {
				p.Parallelism = par
				label := fmt.Sprintf("trial %d %s P=%d", trial, mode, par)
				var mined, remined kept
				if mined.res, err = Mine(ctx, g, p, keep(&mined)); err != nil {
					t.Fatal(err)
				}
				check(label+" mine", &mined)
				if remined.res, err = Remine(ctx, ng, p, mined.res, cs, keep(&remined)); err != nil {
					t.Fatal(err)
				}
				check(label+" remine", &remined)
				check(label+" mine after remine", &mined)
			}
		}
		p := remineParams()["exact"]
		var naive kept
		if naive.res, err = MineNaive(ctx, g, p, keep(&naive)); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("trial %d naive", trial), &naive)
	}
}

// TestRowHoldsNoPointers guards the bucket's row record: the collector
// skips a pointer-free chunk of rows, so a field that holds a pointer
// would bring back the marking cost of every mined row.
func TestRowHoldsNoPointers(t *testing.T) {
	var check func(path string, typ reflect.Type)
	check = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		case reflect.Array:
			check(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := range typ.NumField() {
				f := typ.Field(i)
				check(path+"."+f.Name, f.Type)
			}
		default:
			t.Errorf("%s is a %s, which the collector scans", path, typ.Kind())
		}
	}
	check("row", reflect.TypeFor[row]())
}
