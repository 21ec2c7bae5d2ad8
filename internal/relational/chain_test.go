package relational

import (
	"slices"
	"testing"
)

// TestChainForcedCollisions files distinct ids under one hash, as a
// worst-case collision chain, and checks find, order and removal.
func TestChainForcedCollisions(t *testing.T) {
	vals := []string{"a", "b", "c", "d", "e"} // what the callback compares, by id
	const h = 7
	var c chain[uint64]
	for id := range vals {
		c.add(h, int32(id))
	}
	ids := func() []int32 { return c.appendIDs(nil, h) }

	// find chooses by the equality callback, not by position.
	for want, v := range vals {
		got, ok := c.find(h, func(id int32) bool { return vals[id] == v })
		if !ok || got != int32(want) {
			t.Errorf("find(%q) = %d, %v; want %d", v, got, ok, want)
		}
	}
	if _, ok := c.find(h, func(int32) bool { return false }); ok {
		t.Error("find matched although no id is equal")
	}
	if _, ok := c.find(h+1, func(int32) bool { return true }); ok || c.count(h+1) != 0 {
		t.Error("an empty hash yields ids")
	}
	// Without removals, iteration is insertion order.
	if got := ids(); !slices.Equal(got, []int32{0, 1, 2, 3, 4}) || c.count(h) != 5 {
		t.Fatalf("ids = %v (count %d), want insertion order", got, c.count(h))
	}
	// Removing an overflow id keeps the others in order.
	c.remove(h, 2)
	if got := ids(); !slices.Equal(got, []int32{0, 1, 3, 4}) {
		t.Fatalf("after removing 2: %v", got)
	}
	// Removing the inline id promotes the first overflow id.
	c.remove(h, 0)
	if got := ids(); !slices.Equal(got, []int32{1, 3, 4}) || c.one[h] != 1 {
		t.Fatalf("after removing inline 0: %v, inline %d", got, c.one[h])
	}
	// Removing an id or a hash that is not filed changes nothing.
	c.remove(h, 9)
	c.remove(h+1, 1)
	if got := ids(); !slices.Equal(got, []int32{1, 3, 4}) {
		t.Fatalf("after removing absent ids: %v", got)
	}
	// Removing the last ids leaves no entry in either map.
	for _, id := range []int32{3, 1, 4} {
		c.remove(h, id)
	}
	if len(c.one) != 0 || len(c.more) != 0 || c.count(h) != 0 {
		t.Fatalf("emptied chain keeps entries: one %v, more %v", c.one, c.more)
	}
	// The emptied chain files again from an inline id.
	c.add(h, 5)
	if got := ids(); !slices.Equal(got, []int32{5}) || len(c.more) != 0 {
		t.Fatalf("refiled chain: %v, more %v", got, c.more)
	}
}

// TestChainKeysIndependent checks that ids under distinct keys do not
// mix, that a unique key never reaches the overflow map, and that clear
// empties every key.
func TestChainKeysIndependent(t *testing.T) {
	c := newChain[string](4)
	c.add("x", 1)
	c.add("y", 2)
	if len(c.more) != 0 {
		t.Fatalf("unique keys overflowed: %v", c.more)
	}
	c.add("x", 3)
	if got := c.appendIDs(nil, "x"); !slices.Equal(got, []int32{1, 3}) {
		t.Errorf("x = %v", got)
	}
	if got := c.appendIDs(nil, "y"); !slices.Equal(got, []int32{2}) {
		t.Errorf("y = %v", got)
	}
	c.clear()
	if c.count("x") != 0 || c.count("y") != 0 || len(c.more) != 0 {
		t.Error("clear left ids behind")
	}
}
