package notary

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"sync"

	"tlsage/internal/registry"
)

// Hello rows: the offered side of a connection — the five client lists, the
// fingerprint and the truth label — repeats. §4's fingerprint is a hash of
// those lists, and a few thousand of them cover a collector's whole intake.
// So a record does not hold its offered side: it points at a row, immutable
// and shared by every record of that hello, which carries the helloShape
// Aggregate.Add and ShardBuilder fold. Every record has one — a zero Record
// reads as the empty hello.
//
// Rows are made by a table (decodeTables). Each record decoder keeps one,
// keyed by a hello's raw encoded bytes, and a record that spells a known hello
// is not decoded again; a producer that builds hellos as lists (the
// simulator, a test) interns them through a HelloTable, the same table keyed
// by the hello's TLSB spelling. The key is the record's bytes from its first
// list through its truth label, which are contiguous in both formats, and
// never the fingerprint string alone: that is input, and two different lists
// may carry one fingerprint. Decoding a span reads nothing outside it, so
// equal bytes decode equally — a hit gives the records, and the refusals, the
// checked decoders give. A span above maxHelloSpan bytes gets a row the table
// does not keep.

// Hello is the offered side of a connection as a producer holds it, before a
// table makes a row of it.
type Hello struct {
	Suites            []uint16
	Extensions        []registry.ExtensionID
	Curves            []registry.CurveID
	PointFmts         []registry.ECPointFormat
	SupportedVersions []registry.Version
	// Fingerprint is the §4 client fingerprint string (GREASE-stripped).
	Fingerprint string
	// Truth is ground truth for evaluation (the generating profile's name),
	// empty in purely passive deployments; the analysis pipeline never reads
	// it.
	Truth string
}

// helloShape is everything Aggregate.Add takes from a hello's lists.
type helloShape struct {
	// bits are the suite classes of the GREASE-stripped cipher list: which
	// advertisement counters the hello bumps (advCounters) and which
	// capability classes its fingerprint has.
	bits registry.ClassBits
	// variant is the first TLS 1.3 variant in supported_versions (§6.4), 0
	// when the client offers none.
	variant registry.Version
	// exts is the GREASE-stripped extension list — a multiset: a repeated
	// extension counts twice. A table row holds it sorted ascending.
	exts []registry.ExtensionID
	// pos holds Figure 5's term per class: the relative position of the
	// class's first suite, for a list of more than one suite that has one.
	pos [NumPosClasses]struct {
		term float64
		ok   bool
	}
}

// shapeOf computes the shape of a hello. exts is built in scratch's storage.
func shapeOf(suites []uint16, exts []registry.ExtensionID, svs []registry.Version, scratch []registry.ExtensionID) (sh helloShape) {
	// One dense-table pass that steps over GREASE in place, so n and every
	// index are those of the stripped list without materialising it.
	scan, n := registry.ScanSuitesNoGREASE(suites)
	sh.bits = scan.Bits
	for _, v := range svs {
		if !registry.IsGREASE(uint16(v)) && v.IsTLS13Variant() {
			sh.variant = v
			break
		}
	}
	sh.exts = scratch[:0]
	for _, e := range exts {
		if !registry.IsGREASE(uint16(e)) {
			sh.exts = append(sh.exts, e)
		}
	}
	if n > 1 {
		for c := range sh.pos {
			if idx := scan.FirstIndex(posClasses[c].bit); idx >= 0 {
				sh.pos[c].term, sh.pos[c].ok = float64(idx)/float64(n-1), true
			}
		}
	}
	return sh
}

// helloRow is one hello as a table made it. It is immutable: the records on
// it share its slices.
type helloRow struct {
	Hello
	// offersHB is offers_hb of the record the row was made from. That field
	// lies inside a TSV span, so it is what every TSV record on the row says;
	// a TLSB record's is in its flags byte and never read from here.
	offersHB bool
	// id is the row's ordinal in the table that made it: a decodeTables
	// numbers its rows consecutively and never starts over, and it empties at
	// maxHelloRows rows, so the rows it holds at once have distinct ids modulo
	// maxHelloRows. A sink that keeps something per row (ShardBuilder,
	// BatchWriter) keeps it in a direct-mapped array at slot() and believes
	// an entry only for the row the entry names: rows of other tables, the
	// table's own from before it emptied, and the rows it did not keep (id 0)
	// share the slots.
	id    uint32
	shape helloShape
}

// slot is the row's index in a direct-mapped array of maxHelloRows entries.
func (row *helloRow) slot() int { return int(row.id % maxHelloRows) }

// emptyRow is the row of a record that was given none: the empty hello, whose
// shape is the zero one.
var emptyRow helloRow

// row returns the row of r's offered side.
func (r *Record) row() *helloRow {
	if r.hello == nil {
		return &emptyRow
	}
	return r.hello
}

// HelloTable interns the hellos a producer builds as lists, the way a record
// decoder's table interns the ones it reads: one row per content, keyed by the
// hello's TLSB spelling. The zero value is ready to use. A HelloTable is not
// safe for concurrent use; the rows it makes are, and outlive it.
type HelloTable struct {
	t   *decodeTables
	key []byte
}

// Intern points r's offered side at the row of h, which it makes, copying h,
// when the table has none. h stays the caller's to refill. Nothing of h is
// checked: a record decoder refuses what a log cannot carry, a producer may
// make it.
func (ht *HelloTable) Intern(r *Record, h *Hello) {
	if ht.t == nil {
		ht.t = newDecodeTables()
	}
	ht.key = appendHelloSpan(ht.key[:0], h)
	ht.t.settle(r, ht.key, h)
}

// What bounds a decodeTables: a hello span or string above maxHelloSpan bytes
// is decoded every time and never kept; the tables are emptied when they hold
// maxHelloRows rows, maxInternEntries strings or maxTableBytes bytes of keys
// and strings. A TLSB list element takes at least a byte and decodes to two,
// twice over for an extension (the shape's sorted copy), so a table tops out
// near 2 MiB of keys and strings, 8 MiB of lists and 1.2 MiB of rows. A
// 150,000-record simulated log fills a TSV table with 3,045 rows in about
// 2 MiB (1.0 keys and strings, 0.2 lists, 0.9 rows). Beside them a table
// keeps its decoder's stream buffer, at most maxKeptBuffer bytes of it: a
// TLSB table the frame body (≈ 18 KiB for a 512-record frame), a TSV table
// the log reader's 64 KiB window — 12.2 MiB a table at the very most. While a
// version-3 TLSB frame is read the table also holds the entries the frame has
// defined, which outlive an emptying of the maps: at most maxHelloRows rows
// and as many cohorts, none from a definition above maxHelloSpan bytes — one
// full table's rows — all let go at the frame's end.
const (
	maxHelloSpan     = 1 << 12
	maxHelloRows     = 1 << 12
	maxInternEntries = 1 << 14
	maxTableBytes    = 1 << 21
	maxKeptBuffer    = 1 << 20
)

// decodeTables is what a record decoder keeps from record to record: the
// hello rows, the strings interned beside them (the cohort is outside the
// hello span), and the list storage a miss decodes into. Nothing in it is
// about a stream or a peer — keys are content — so a table outlives its
// stream through its decoder's pool. It is not safe for concurrent use: a
// stream, or a parallel reader's worker, draws its own.
type decodeTables struct {
	rows map[string]*helloRow
	strs map[string]string
	held int    // bytes of the keys of both maps
	made uint32 // rows made: the next row's id

	// scratch is where the checked decoders put a hello on a miss; a row
	// takes copies.
	scratch Hello

	// The buffer the stream is read through, kept from stream to stream so a
	// connection does not grow its own: the TLSB reader's frame body (see
	// readBatches), the log reader's window (see logReader). Nothing decoded points into
	// either — rows, keys and strings are copies.
	frame, line []byte

	// What the version-3 TLSB frame being read has defined, in order: entry i
	// is hellos[i-1] or cohorts[i-1]. Emptied at every frame boundary.
	hellos  []*helloRow
	cohorts []string

	// A kept row's lists are carved from chunks (its strings are unused), so a
	// distinct hello costs its key, its row and a share of a chunk, not an
	// allocation per list. A chunk is only ever appended to: emptying the
	// tables drops the chunks, it does not rewind them, because a record may
	// still point into one.
	chunk Hello
}

// chunkLen is the elements a list chunk is opened with.
const chunkLen = 2048

func newDecodeTables() *decodeTables {
	return &decodeTables{rows: make(map[string]*helloRow), strs: make(map[string]string)}
}

// One pool per decoder. The formats must not share: a TLSB span and a TSV
// span are different spellings that could collide byte for byte. (The strings
// interned beside them have passed the same loggable check in either.)
var tlsbTables, tsvTables = sync.Pool{New: pooledTables}, sync.Pool{New: pooledTables}

func pooledTables() any { return newDecodeTables() }

// endFrame forgets the frame's entries, and lets go of what they point at.
func (t *decodeTables) endFrame() {
	clear(t.hellos)
	clear(t.cohorts)
	t.hellos, t.cohorts = t.hellos[:0], t.cohorts[:0]
}

// reserve accounts for an n-byte key about to be inserted, emptying the
// tables first when they are full.
func (t *decodeTables) reserve(n int) {
	if len(t.rows) >= maxHelloRows || len(t.strs) >= maxInternEntries || t.held+n > maxTableBytes {
		clear(t.rows)
		clear(t.strs)
		t.held = 0
		t.chunk = Hello{}
	}
	t.held += n
}

// intern copies b, a string the table does not hold, and keeps the copy. A
// lookup keyed by string(b) does not allocate (the compiler elides the
// conversion), so callers index strs first and pay for the copy on a miss
// only.
func (t *decodeTables) intern(b []byte) string {
	s := string(b)
	if len(b) <= maxHelloSpan {
		t.reserve(len(b))
		t.strs[s] = s
	}
	return s
}

// carve copies src to the end of *chunk, opening a new chunk when it does not
// fit, and returns the copy with no spare capacity behind it; nil for an
// empty src.
func carve[T any](chunk *[]T, src []T) []T {
	if len(src) == 0 {
		return nil
	}
	if len(src) > cap(*chunk)-len(*chunk) {
		*chunk = make([]T, 0, max(chunkLen, len(src)))
	}
	n := len(*chunk)
	*chunk = append(*chunk, src...)
	return (*chunk)[n:len(*chunk):len(*chunk)]
}

// own copies src into storage of its own, which no other row shares; nil for
// an empty src, as carve gives.
func own[T any](src []T) []T {
	if len(src) == 0 {
		return nil
	}
	return slices.Clone(src)
}

// settle points r at the row of h, whose span is key: the row t holds, or a
// new one. h is a hello read whole (and r.OffersHeartbeat with it, for a TSV
// span).
func (t *decodeTables) settle(r *Record, key []byte, h *Hello) {
	// The decoders look a span up only where they can find its end without
	// decoding; one they could not may still be here.
	row := t.rows[string(key)]
	if row == nil {
		row = t.newRow(key, h, r.OffersHeartbeat)
	}
	r.hello = row
}

// newRow makes the row of h, whose span is key, copying h. A span of
// ordinary size is remembered, its lists carved from t's chunks; a longer one
// gets a row of its own that t does not keep.
func (t *decodeTables) newRow(key []byte, h *Hello, offersHB bool) *helloRow {
	row := &helloRow{offersHB: offersHB}
	var exts []registry.ExtensionID // the shape's: a second copy of the list, which has room for all of it
	if len(key) > maxHelloSpan {
		row.Hello = Hello{own(h.Suites), own(h.Extensions), own(h.Curves), own(h.PointFmts), own(h.SupportedVersions),
			h.Fingerprint, h.Truth}
		exts = own(h.Extensions)
	} else {
		t.reserve(len(key))
		c := &t.chunk
		row.Hello = Hello{carve(&c.Suites, h.Suites), carve(&c.Extensions, h.Extensions), carve(&c.Curves, h.Curves),
			carve(&c.PointFmts, h.PointFmts), carve(&c.SupportedVersions, h.SupportedVersions), h.Fingerprint, h.Truth}
		exts = carve(&c.Extensions, h.Extensions)
		row.id = t.made
		t.made++
		t.rows[string(key)] = row
	}
	// The extension set is stripped into its copy, and sorted there.
	row.shape = shapeOf(row.Suites, row.Extensions, row.SupportedVersions, exts[:0])
	slices.Sort(row.shape.exts)
	return row
}

// tlsbHelloSpan returns the TLSB hello span that starts at b[off] — five
// count-prefixed varint lists, then the length-prefixed fp and truth —
// without decoding it, or nil when the bytes there are not spelled the
// ordinary way (a count or length wider than three bytes, a span that runs
// into the last three bytes of b): the checked decoders then say what they
// are.
func tlsbHelloSpan(b []byte, off int) []byte {
	end := off
	for range 5 {
		n, w := varint3(b, end)
		if w == 0 {
			return nil
		}
		if end = skipVarints(b, end+w, int(n)); end < 0 {
			return nil
		}
	}
	for range 2 {
		n, w := varint3(b, end)
		if w == 0 {
			return nil
		}
		if end += w + int(n); end > len(b) {
			return nil
		}
	}
	return b[off:end]
}

// skipVarints returns the offset just past the n-th varint at or after
// b[off] — the n-th byte with a clear top bit — or -1 when b holds fewer. It
// steps eight bytes at a time.
func skipVarints(b []byte, off, n int) int {
	for n > 0 && off+8 <= len(b) {
		ends := ^binary.LittleEndian.Uint64(b[off:]) & tops
		if c := bits.OnesCount64(ends); c < n {
			n -= c
			off += 8
			continue
		}
		return off + nthMark(ends, n) + 1
	}
	for ; n > 0; off++ {
		if off >= len(b) {
			return -1
		}
		if b[off] < 0x80 {
			n--
		}
	}
	return off
}

// tops has the top bit of each of a word's eight bytes.
const tops = 0x8080808080808080

// nthMark returns which byte of a little-endian word carries the n-th of its
// marks, counting both from the low end, n from 1.
func nthMark(marks uint64, n int) int {
	for ; n > 1; n-- {
		marks &= marks - 1
	}
	return bits.TrailingZeros64(marks) / 8
}

// tsvHelloSpan returns the TSV hello span that starts at b[off], the eight
// fields client_suites … truth, taking the line to have its twenty fields:
// the span then ends at the line's last tab, the one before the cohort. A
// line of another width gives a span of another width, which no row has — a
// key is only ever what the checked parser read as eight fields.
func tsvHelloSpan(b []byte, off int) []byte {
	end := len(b) - 1
	for end >= off && b[end] != '\t' {
		end--
	}
	if end < off {
		return nil
	}
	return b[off:end]
}
