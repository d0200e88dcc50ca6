package vector

import "testing"

// TestMemoLRUWithinBound: a sealed vector's memo holds at most Len()/4
// floats, evicts least-recently-used entries first, never stores an entry
// larger than the bound, and copies what it stores.
func TestMemoLRUWithinBound(t *testing.T) {
	x := FromDense(make([]float64, 64))
	if x.Memo() != nil {
		t.Fatal("unsealed vector has a memo")
	}
	x.Seal()
	m := x.Memo()
	src := FromDense([]float64{1, 2, 3, 4, 5, 6})
	m.Put("a", src)
	m.Put("b", src)
	src.Set(0, 9) // the memo holds a copy
	if v, ok := m.Get("a"); !ok || v[0] != 1 {
		t.Fatalf("Get(a) = %v, %v; want the copy taken at Put", v, ok)
	}
	m.Put("c", src) // 18 floats > 16: evicts b, the least recently used
	if _, ok := m.Get("b"); ok {
		t.Fatal("b survived although a was used more recently")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := m.Get(k); !ok {
			t.Fatalf("%s was evicted", k)
		}
	}
	m.Put("big", FromDense(make([]float64, 17)))
	if _, ok := m.Get("big"); ok {
		t.Fatal("an entry above the Len()/4 bound was stored")
	}
	if st := m.Stats(); st.Floats != 12 || st.Hits != 3 || st.Misses != 2 {
		t.Fatalf("stats %+v, want 12 floats, 3 hits, 2 misses", st)
	}
	if x.Clone().Memo() != nil {
		t.Fatal("Clone carried the memo over")
	}
	var none *Memo
	none.Put("a", src)
	if _, ok := none.Get("a"); ok || none.Stats() != (MemoStats{}) {
		t.Fatal("nil memo is not empty")
	}
}
