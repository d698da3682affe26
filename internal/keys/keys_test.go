package keys

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestKeyLessOrdersByDistanceFirst(t *testing.T) {
	a := Key{Dist: 1, ID: 100}
	b := Key{Dist: 2, ID: 1}
	if !a.Less(b) {
		t.Fatalf("expected %v < %v", a, b)
	}
	if b.Less(a) {
		t.Fatalf("expected !(%v < %v)", b, a)
	}
}

func TestKeyLessBreaksTiesByID(t *testing.T) {
	a := Key{Dist: 7, ID: 3}
	b := Key{Dist: 7, ID: 9}
	if !a.Less(b) {
		t.Fatalf("expected %v < %v by ID tie-break", a, b)
	}
	if a.Less(a) {
		t.Fatalf("Less must be irreflexive")
	}
}

func TestKeyCompareConsistentWithLess(t *testing.T) {
	cases := []struct {
		a, b Key
		want int
	}{
		{Key{1, 1}, Key{1, 1}, 0},
		{Key{1, 1}, Key{1, 2}, -1},
		{Key{2, 1}, Key{1, 9}, 1},
		{MinKey, MaxKey, -1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestKeyLessEq(t *testing.T) {
	a := Key{Dist: 5, ID: 5}
	if !a.LessEq(a) {
		t.Fatalf("LessEq must be reflexive")
	}
	if !MinKey.LessEq(a) || !a.LessEq(MaxKey) {
		t.Fatalf("sentinels must bound all keys")
	}
}

// Property: Less is a strict total order (trichotomy + transitivity on
// random triples).
func TestKeyOrderProperties(t *testing.T) {
	trichotomy := func(a, b Key) bool {
		n := 0
		if a.Less(b) {
			n++
		}
		if b.Less(a) {
			n++
		}
		if a == b {
			n++
		}
		return n == 1
	}
	if err := quick.Check(trichotomy, nil); err != nil {
		t.Errorf("trichotomy violated: %v", err)
	}
	transitive := func(a, b, c Key) bool {
		if a.Less(b) && b.Less(c) {
			return a.Less(c)
		}
		return true
	}
	if err := quick.Check(transitive, nil); err != nil {
		t.Errorf("transitivity violated: %v", err)
	}
}

func TestEncodeFloatRejectsInvalid(t *testing.T) {
	if _, err := EncodeFloat(math.NaN()); err == nil {
		t.Errorf("EncodeFloat(NaN) should fail")
	}
	if _, err := EncodeFloat(-1e-9); err == nil {
		t.Errorf("EncodeFloat(negative) should fail")
	}
}

func TestEncodeFloatSpecialValues(t *testing.T) {
	zero, err := EncodeFloat(0)
	if err != nil {
		t.Fatalf("EncodeFloat(0): %v", err)
	}
	if zero != 0 {
		t.Errorf("EncodeFloat(0) = %d, want 0", zero)
	}
	inf, err := EncodeFloat(math.Inf(1))
	if err != nil {
		t.Fatalf("EncodeFloat(+Inf): %v", err)
	}
	big, _ := EncodeFloat(math.MaxFloat64)
	if inf <= big {
		t.Errorf("+Inf must encode above MaxFloat64: %d <= %d", inf, big)
	}
}

// Property: the float encoding preserves order for arbitrary non-negative
// pairs and round-trips exactly.
func TestEncodeFloatOrderPreserving(t *testing.T) {
	prop := func(x, y float64) bool {
		x, y = math.Abs(x), math.Abs(y)
		if math.IsNaN(x) || math.IsNaN(y) {
			return true
		}
		ex := MustEncodeFloat(x)
		ey := MustEncodeFloat(y)
		if DecodeFloat(ex) != x || DecodeFloat(ey) != y {
			return false
		}
		return (x < y) == (ex < ey) && (x == y) == (ex == ey)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Errorf("order preservation violated: %v", err)
	}
}

func TestEncodeFloatSortedSliceStaysSorted(t *testing.T) {
	ds := []float64{0, 1e-300, 1e-10, 0.5, 1, 1.0000001, 2, 1e10, math.MaxFloat64, math.Inf(1)}
	if !sort.Float64sAreSorted(ds[:len(ds)-1]) {
		t.Fatalf("test fixture must be sorted")
	}
	var prev uint64
	for i, d := range ds {
		u := MustEncodeFloat(d)
		if i > 0 && u <= prev {
			t.Fatalf("encoding not strictly increasing at %g: %d <= %d", d, u, prev)
		}
		prev = u
	}
}

func TestMustEncodeFloatPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("MustEncodeFloat(NaN) must panic")
		}
	}()
	MustEncodeFloat(math.NaN())
}
