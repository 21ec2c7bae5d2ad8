package relational

import "slices"

// chain is the hash table under every table index and kernel hash table
// of the package: a multimap from a hash (or a typed key) to int32 ids —
// row slots, row indices or positions in a group list — that the caller
// resolves and compares itself. The first id filed under a key is stored
// inline in one; the second and later ids go to the overflow list in
// more. A key that no other id shares — a unique key, or a hash without
// collisions — therefore costs no heap object of its own, and the inline
// map's value is a single int32.
//
// The ids under one key iterate in insertion order, and remove keeps the
// survivors in that order: removing the inline id promotes the first
// overflow id. The zero chain is empty and ready to use.
type chain[K comparable] struct {
	one  map[K]int32
	more map[K][]int32
}

// newChain returns an empty chain sized for hint keys.
func newChain[K comparable](hint int) chain[K] {
	return chain[K]{one: make(map[K]int32, hint)}
}

// reserve sizes a chain that has never held a key for n keys. A chain
// in use keeps the capacity it has grown to, also across clear.
func (c *chain[K]) reserve(n int) {
	if c.one == nil {
		c.one = make(map[K]int32, n)
	}
}

// add files id under k, after any ids already there.
func (c *chain[K]) add(k K, id int32) {
	if c.one == nil {
		c.one = make(map[K]int32)
	}
	if _, ok := c.one[k]; !ok {
		c.one[k] = id
		return
	}
	if c.more == nil {
		c.more = make(map[K][]int32)
	}
	c.more[k] = append(c.more[k], id)
}

// find returns the first id under k, in insertion order, for which eq
// holds.
func (c *chain[K]) find(k K, eq func(id int32) bool) (int32, bool) {
	id, ok := c.one[k]
	if !ok {
		return 0, false
	}
	if eq(id) {
		return id, true
	}
	for _, id := range c.more[k] {
		if eq(id) {
			return id, true
		}
	}
	return 0, false
}

// findOrAdd returns the first id under k for which eq holds and true.
// When none does, it files id under k and returns id and false.
func (c *chain[K]) findOrAdd(k K, id int32, eq func(id int32) bool) (int32, bool) {
	if got, ok := c.find(k, eq); ok {
		return got, true
	}
	c.add(k, id)
	return id, false
}

// count returns the number of ids filed under k.
func (c *chain[K]) count(k K) int {
	if _, ok := c.one[k]; !ok {
		return 0
	}
	return 1 + len(c.more[k])
}

// appendIDs appends the ids under k to dst in insertion order.
func (c *chain[K]) appendIDs(dst []int32, k K) []int32 {
	id, ok := c.one[k]
	if !ok {
		return dst
	}
	dst = append(dst, id)
	return append(dst, c.more[k]...)
}

// remove drops id from under k, keeping the other ids in order; a key
// left with no id leaves both maps.
func (c *chain[K]) remove(k K, id int32) {
	head, ok := c.one[k]
	if !ok {
		return
	}
	rest := c.more[k]
	if head == id {
		if len(rest) == 0 {
			delete(c.one, k)
			return
		}
		c.one[k] = rest[0]
		rest = rest[1:]
	} else if i := slices.Index(rest, id); i >= 0 {
		rest = slices.Delete(rest, i, i+1)
	} else {
		return
	}
	if len(rest) == 0 {
		delete(c.more, k)
	} else {
		c.more[k] = rest
	}
}

// clear empties the chain and keeps its maps' capacity.
func (c *chain[K]) clear() {
	clear(c.one)
	clear(c.more)
}
