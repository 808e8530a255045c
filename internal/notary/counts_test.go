package notary

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"tlsage/internal/registry"
)

// countsModel drives a Counts[uint16] and the map[uint16]int it replaced
// through the same operations and compares them after every step.
type countsModel struct {
	t     testing.TB
	c     Counts[uint16]
	model map[uint16]int
}

func newCountsModel(t testing.TB) *countsModel {
	return &countsModel{t: t, model: make(map[uint16]int)}
}

func (m *countsModel) add(k uint16, delta int) {
	m.c.Add(k, delta)
	m.model[k] += delta
	m.checkKey(k)
}

func (m *countsModel) set(k uint16, v int) {
	m.c.Set(k, v)
	m.model[k] = v
	m.checkKey(k)
}

// addEach is add(k, n) for each of keys through Counts.addEach, which wants
// them ascending to be quick but must be right in any order.
func (m *countsModel) addEach(keys []uint16, n int) {
	m.c.addEach(keys, n)
	for _, k := range keys {
		m.model[k] += n
	}
	for _, k := range keys {
		m.checkKey(k)
	}
}

func (m *countsModel) checkKey(k uint16) {
	m.t.Helper()
	want, present := m.model[k]
	if got := m.c.Get(k); got != want {
		m.t.Fatalf("Get(%#04x) = %d, model %d", k, got, want)
	}
	if got := m.c.Has(k); got != present {
		m.t.Fatalf("Has(%#04x) = %v, model %v", k, got, present)
	}
	if m.c.Len() != len(m.model) {
		m.t.Fatalf("Len = %d, model %d", m.c.Len(), len(m.model))
	}
}

// checkAll compares All() with the model's entries in sorted key order.
func (m *countsModel) checkAll() {
	m.t.Helper()
	keys := make([]uint16, 0, len(m.model))
	for k := range m.model {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	i := 0
	for k, v := range m.c.All() {
		if i >= len(keys) {
			m.t.Fatalf("All yields %#04x beyond the model's %d keys", k, len(keys))
		}
		if k != keys[i] || v != m.model[k] {
			m.t.Fatalf("All entry %d = (%#04x, %d), model (%#04x, %d)", i, k, v, keys[i], m.model[keys[i]])
		}
		i++
	}
	if i != len(keys) {
		m.t.Fatalf("All yields %d entries, model has %d", i, len(keys))
	}
}

// countsEdgeKeys are the keys at page and range boundaries plus every GREASE
// code point (which the tables must hold like any other key: stripping is
// Add's business, not the container's).
func countsEdgeKeys() []uint16 {
	return append([]uint16{0x0000, 0x003f, 0x0040, 0x00ff, 0x0100, 0xffbf, 0xffc0, 0xffff},
		registry.GREASEValues()...)
}

func TestCountsAgainstMapModel(t *testing.T) {
	rnd := rand.New(rand.NewSource(16))
	for trial := 0; trial < 50; trial++ {
		m := newCountsModel(t)
		m.checkAll()
		if m.c.Get(0x1301) != 0 || m.c.Has(0x1301) || m.c.Len() != 0 {
			t.Fatal("zero Counts is not empty")
		}
		edge := countsEdgeKeys()
		for op := 0; op < 400; op++ {
			var k uint16
			switch rnd.Intn(4) {
			case 0:
				k = edge[rnd.Intn(len(edge))]
			case 1:
				k = uint16(rnd.Intn(1 << 16))
			default: // clustered, like real code points
				k = uint16(0xc000 + rnd.Intn(0x60))
			}
			switch rnd.Intn(6) {
			case 0:
				m.add(k, 0) // a zero delta makes the key present
			case 1:
				m.add(k, math.MaxInt/4)
			case 2:
				m.set(k, rnd.Intn(1000))
			case 3: // duplicate Set: the last one wins
				m.set(k, 7)
				m.set(k, rnd.Intn(1000))
			default:
				m.add(k, 1+rnd.Intn(5))
			}
			// A neighbour that was never touched stays absent.
			m.checkKey(k ^ 1)
		}
		m.checkAll()
	}
}

func TestCountsEdgeKeys(t *testing.T) {
	m := newCountsModel(t)
	for i, k := range countsEdgeKeys() {
		m.add(k, i) // the first delta is 0
	}
	m.checkAll()
	prev := -1
	for k := range m.c.All() {
		if int(k) <= prev {
			t.Fatalf("All not strictly ascending: %#04x after %#04x", k, prev)
		}
		prev = int(k)
	}
	if !m.c.Has(0x0000) || m.c.Get(0x0000) != 0 {
		t.Error("key 0x0000 touched with a zero delta is not present-and-zero")
	}
}

func TestCountsAllEarlyBreak(t *testing.T) {
	var c Counts[uint16]
	for _, k := range []uint16{0x0005, 0x0041, 0x1301, 0xc02f, 0xffff} {
		c.Add(k, 1)
	}
	for stop := 1; stop <= c.Len(); stop++ {
		seen := 0
		for range c.All() {
			seen++
			if seen == stop {
				break
			}
		}
		if seen != stop {
			t.Fatalf("break after %d entries saw %d", stop, seen)
		}
	}
}

// The uint8 instantiation (ByKex) keeps every key on the low pages.
func TestCountsUint8Keys(t *testing.T) {
	var c Counts[registry.KeyExchange]
	c.Add(registry.KexTLS13, 2)
	c.Add(registry.KeyExchange(255), 0)
	c.Add(registry.KexNULL, 1)
	var got []registry.KeyExchange
	for k := range c.All() {
		got = append(got, k)
	}
	if want := []registry.KeyExchange{registry.KexNULL, registry.KexTLS13, 255}; !slices.Equal(got, want) {
		t.Fatalf("All keys = %v, want %v", got, want)
	}
	if c.Len() != 3 || !c.Has(255) || c.Get(255) != 0 || c.Get(registry.KexTLS13) != 2 {
		t.Fatalf("uint8 table: Len %d Has(255) %v Get(255) %d", c.Len(), c.Has(255), c.Get(255))
	}
}

// merge is Add over the donor's entries: same counters, same presence — and,
// the directory being canonical, the same value under reflect.DeepEqual,
// which is how every aggregate parity test compares.
func TestCountsMergeMatchesAddLoop(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		var a, b, want Counts[uint16]
		for i := 0; i < 60; i++ {
			k, d := uint16(rnd.Intn(0x200)), rnd.Intn(3) // d may be 0
			if rnd.Intn(2) == 0 {
				a.Add(k, d)
				want.Add(k, d)
			} else {
				b.Add(k, d)
			}
		}
		for k, v := range b.All() {
			want.Add(k, v)
		}
		a.merge(&b)
		if !reflect.DeepEqual(&a, &want) {
			t.Fatalf("trial %d: merge differs from Add over the donor's entries", trial)
		}
	}
}

// FuzzCounts replays an arbitrary op tape against the map model. Each op is
// four bytes: kind, key (big endian), operand. Kind 2 gathers its key into a
// batch, which an odd operand (or the tape's end) sorts and hands to addEach,
// repeated keys included, to be added operand/4 times each — zero included; an
// operand of 3 hands it over unsorted. An operand of 255 to kind 1 resets the
// table (the model forgets everything) before the Set. Kind 3 merges a donor
// that held its key, by operand, and was reset: that adds no page and no key.
func FuzzCounts(f *testing.F) {
	tape := func(ops ...[4]byte) []byte {
		var b []byte
		for _, op := range ops {
			b = append(b, op[:]...)
		}
		return b
	}
	f.Add([]byte{})
	f.Add(tape([4]byte{0, 0x00, 0x00, 0}, [4]byte{0, 0xff, 0xff, 1}, [4]byte{1, 0x00, 0xff, 9}, [4]byte{1, 0x01, 0x00, 9}))
	f.Add(tape([4]byte{1, 0x13, 0x01, 5}, [4]byte{1, 0x13, 0x01, 6}, [4]byte{0, 0x13, 0x01, 0}))
	var grease []byte
	for _, g := range registry.GREASEValues() {
		grease = append(grease, 0)
		grease = binary.BigEndian.AppendUint16(grease, g)
		grease = append(grease, byte(g))
	}
	f.Add(grease)
	f.Add(tape([4]byte{2, 0x00, 0x3f, 0}, [4]byte{2, 0x00, 0x40, 0}, [4]byte{2, 0x00, 0x3f, 0}, [4]byte{2, 0xff, 0x01, 1},
		[4]byte{1, 0x00, 0x40, 9}, [4]byte{2, 0xff, 0x01, 0}, [4]byte{2, 0x00, 0x00, 3}, [4]byte{2, 0x00, 0x41, 0}))
	f.Add(tape([4]byte{0, 0x00, 0x3f, 2}, [4]byte{2, 0x00, 0x41, 13}, [4]byte{1, 0x01, 0x00, 255}, [4]byte{2, 0x00, 0x41, 21}, [4]byte{0, 0x00, 0x3f, 0}))
	f.Add(tape([4]byte{0, 0x13, 0x01, 1}, [4]byte{3, 0x13, 0x02, 4}, [4]byte{3, 0xc0, 0x2f, 0}, [4]byte{0, 0xc0, 0x2f, 1}))
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := newCountsModel(t)
		var batch []uint16
		var donor Counts[uint16]
		for ; len(ops) >= 4; ops = ops[4:] {
			k, v := binary.BigEndian.Uint16(ops[1:]), int(ops[3])
			switch ops[0] % 4 {
			case 0:
				m.add(k, v)
			case 3:
				donor.Add(k, v)
				donor.reset()
				pages := len(m.c.dir)
				m.c.merge(&donor)
				if len(m.c.dir) != pages {
					t.Fatalf("merging a reset table took %d pages to %d", pages, len(m.c.dir))
				}
				m.checkKey(k)
			case 1:
				if v == 255 {
					m.c.reset()
					clear(m.model)
					m.checkAll()
				}
				m.set(k, v)
			default:
				batch = append(batch, k)
				if v&1 != 0 {
					if v != 3 {
						slices.Sort(batch)
					}
					m.addEach(batch, v/4)
					batch = batch[:0]
				}
			}
		}
		slices.Sort(batch)
		m.addEach(batch, 1)
		m.checkAll()
	})
}
