package notary

import (
	"iter"
	"math/bits"
	"slices"
)

// Counts is a table of int counters keyed by an 8- or 16-bit code point —
// the dense stand-in for a map[K]int on the Add hot path, where hashing a
// two-byte key costs more than the increment it guards.
//
// It keeps a map's one observable subtlety: a key is *present* once Add or
// Set has touched it, whatever the delta or value, and stays present. Len,
// Has and All see present keys only; Get of an absent key is 0. Presence is
// content: the snapshot codec writes one entry per present key, and the
// analysis frame opens one column per present key.
//
// Layout: one page of 64 counters plus a 64-bit presence word per run of 64
// consecutive code points in use. Code points cluster — across the study
// window a month's six tables occupy about nine pages between them, the
// same number 256-counter pages would need at four times the memory — so
// the directory is a short sorted slice, not a slot per possible page.
//
// Two Counts with the same present keys and values are reflect.DeepEqual
// whatever order the keys arrived in: the directory is sorted and a page
// exists only while it holds a present key. The zero value is empty and
// ready to use; a Counts must not be copied after first use.
type Counts[K ~uint8 | ~uint16] struct {
	dir []countsDirEntry // ascending by id
	n   int              // present keys
}

// countsDirEntry places the page of keys id<<6 … id<<6|63.
type countsDirEntry struct {
	id   uint16
	page *countsPage
}

type countsPage struct {
	present uint64
	n       [64]int
}

// find returns the directory position of page id, or where it would be
// inserted. Binary search keeps a feeder that sprays code points over all
// 1024 possible pages from making every later lookup linear in them; it is
// written out because slices.BinarySearchFunc, through its comparison
// closure, costs three times as much per Add.
func (c *Counts[K]) find(id uint16) (at int, ok bool) {
	lo, hi := 0, len(c.dir)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.dir[mid].id < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(c.dir) && c.dir[lo].id == id
}

// ensurePage returns page id, inserting an empty one in order when the
// directory has none.
func (c *Counts[K]) ensurePage(id uint16) *countsPage {
	at, ok := c.find(id)
	if !ok {
		c.dir = slices.Insert(c.dir, at, countsDirEntry{id, new(countsPage)})
	}
	return c.dir[at].page
}

// touch marks k present and returns its counter.
func (c *Counts[K]) touch(k K) *int {
	p := c.ensurePage(uint16(k) >> 6)
	if bit := uint64(1) << (k & 63); p.present&bit == 0 {
		p.present |= bit
		c.n++
	}
	return &p.n[k&63]
}

// Add adds delta to k's counter. A zero delta still makes k present.
func (c *Counts[K]) Add(k K, delta int) { *c.touch(k) += delta }

// addEach is Add(k, n) for each of keys, looking a page up once per run of
// keys that share it: once per page when the keys ascend.
func (c *Counts[K]) addEach(keys []K, n int) {
	var p *countsPage
	at := -1
	for _, k := range keys {
		if id := int(uint16(k) >> 6); id != at {
			p, at = c.ensurePage(uint16(id)), id
		}
		if bit := uint64(1) << (k & 63); p.present&bit == 0 {
			p.present |= bit
			c.n++
		}
		p.n[k&63] += n
	}
}

// reset empties c but keeps its pages, zeroed, for the keys to come: what a
// table its owner refills with much the same keys wants. A table reset this
// way is no longer reflect.DeepEqual to one that never held them.
func (c *Counts[K]) reset() {
	for _, e := range c.dir {
		*e.page = countsPage{}
	}
	c.n = 0
}

// Set stores v as k's counter, replacing whatever it held.
func (c *Counts[K]) Set(k K, v int) { *c.touch(k) = v }

// Get returns k's counter, 0 when k is absent.
func (c *Counts[K]) Get(k K) int {
	if at, ok := c.find(uint16(k) >> 6); ok {
		return c.dir[at].page.n[k&63] // absent slots of a page are never written
	}
	return 0
}

// Has reports whether k is present.
func (c *Counts[K]) Has(k K) bool {
	at, ok := c.find(uint16(k) >> 6)
	return ok && c.dir[at].page.present&(1<<(k&63)) != 0
}

// Len returns the number of present keys.
func (c *Counts[K]) Len() int { return c.n }

// All iterates the present keys in ascending order with their counters.
func (c *Counts[K]) All() iter.Seq2[K, int] {
	return func(yield func(K, int) bool) {
		for _, e := range c.dir {
			for word := e.page.present; word != 0; word &= word - 1 {
				lo := bits.TrailingZeros64(word)
				if !yield(K(e.id<<6|uint16(lo)), e.page.n[lo]) {
					return
				}
			}
		}
	}
}

// merge adds o's counters into c, key by key; every key present in o becomes
// present in c. It is Add over o.All() done a page at a time, so a page of o's
// with no key present (one reset left) adds no page to c.
func (c *Counts[K]) merge(o *Counts[K]) {
	for _, e := range o.dir {
		if e.page.present == 0 {
			continue
		}
		p := c.ensurePage(e.id)
		c.n += bits.OnesCount64(e.page.present &^ p.present)
		p.present |= e.page.present
		for word := e.page.present; word != 0; word &= word - 1 {
			lo := bits.TrailingZeros64(word)
			p.n[lo] += e.page.n[lo]
		}
	}
}
