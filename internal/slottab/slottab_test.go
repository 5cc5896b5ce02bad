package slottab

import "testing"

// TestTableCollisions drives the table with hashes the test chooses:
// keys that share a hash but differ must get distinct elements, a key
// seen before must resolve to its first element, and element indices
// follow insertion order however the table grows.
func TestTableCollisions(t *testing.T) {
	var tab Table
	var keys []int
	add := func(h uint64, k int) (int, bool) {
		i, found := tab.Insert(h, func(i int) bool { return keys[i] == k })
		if !found {
			keys = append(keys, k)
		}
		return i, found
	}
	find := func(h uint64, k int) int { return tab.Find(h, func(i int) bool { return keys[i] == k }) }

	if i := find(7, 1); i != -1 {
		t.Fatalf("Find on an empty table = %d, want -1", i)
	}
	const same = 42
	for k := 0; k < 300; k++ {
		if i, found := add(same, k); found || i != 2*k {
			t.Fatalf("add(%d) on a shared hash = (%d, %v), want (%d, false)", k, i, found, 2*k)
		}
		if i, found := add(uint64(k), 1000+k); found || i != 2*k+1 {
			t.Fatalf("add(%d) = (%d, %v), want (%d, false)", 1000+k, i, found, 2*k+1)
		}
	}
	if tab.Len() != 600 {
		t.Fatalf("Len = %d, want 600", tab.Len())
	}
	for i, k := range keys {
		h := uint64(same)
		if k >= 1000 {
			h = uint64(k - 1000)
		}
		if got := find(h, k); got != i {
			t.Fatalf("Find(%d) = %d, want %d", k, got, i)
		}
		if got, found := add(h, k); !found || got != i {
			t.Fatalf("re-adding %d = (%d, %v), want (%d, true)", k, got, found, i)
		}
	}
	if find(same, -1) != -1 || find(3, 3) != -1 {
		t.Fatal("Find reports a key never added")
	}
}
