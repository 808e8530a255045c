package notary

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"tlsage/internal/framing"
	"tlsage/internal/registry"
	"tlsage/internal/timeline"
)

// Snapshot codec: a versioned binary encoding of an Aggregate in the shared
// frame envelope (see package framing). It is the durability format of the
// live service (periodic snapshot-to-disk, restart recovery), and its bare
// payload is what a federation delta embeds (shipping merged aggregates
// upstream costs O(months×counters) instead of O(records)).
//
// The payload packs the generation, every MonthStats (counters, maps,
// fingerprint capability sets) and the fingerprint lifetime maps. The plain
// counters are written in schema order (see schema.go), map entries in
// sorted key order, so encoding is deterministic: equal aggregate content
// yields equal bytes. All integer counters are unsigned varints; float64
// position sums are fixed 8-byte little-endian IEEE 754.
//
// Decoding is defensive: every length is bounds-checked against the bytes
// actually present, so arbitrary or corrupted input yields an error — never
// a panic or an implausible allocation (fuzzed by FuzzReadSnapshot).

// SnapshotVersion is the wire-format version byte written by this build.
// Version 2 appended the per-month ByFingerprint/ByClientClass attribution
// tables after the FPs table. Readers accept snapshotFormat.MinVersion
// through SnapshotVersion — a version-1 snapshot still decodes, with
// ByClientClass left empty — and reject anything newer, so the format can
// evolve without silent misdecodes.
const SnapshotVersion = 2

// snapshotFormat is the TLSN envelope. The length field is 8 bytes wide, a
// format fact since version 1. A real snapshot of the multi-year study is a
// few MiB; the 4 GiB cap keeps a corrupt length field from being believed.
var snapshotFormat = framing.Format{
	Magic:      "TLSN",
	MinVersion: 1,
	Version:    SnapshotVersion,
	LenBytes:   8,
	MaxPayload: 1 << 32,
}

// EncodeSnapshot appends the complete framed snapshot of a to dst and
// returns the extended slice. Encoding is deterministic for equal content.
// It panics if the payload exceeds the format's 4 GiB cap, three orders of
// magnitude past the full study.
func EncodeSnapshot(dst []byte, a *Aggregate) []byte {
	var keys []string
	return encodeSnapshot(dst, a, &keys)
}

// encodeSnapshot is EncodeSnapshot sorting map keys in *keys' storage.
func encodeSnapshot(dst []byte, a *Aggregate, keys *[]string) []byte {
	dst, mark := snapshotFormat.Begin(dst)
	dst, err := snapshotFormat.End(appendAggregatePayload(dst, a, keys), mark)
	if err != nil {
		panic("notary: snapshot: " + err.Error())
	}
	return dst
}

// snapshotBuf is what WriteSnapshot encodes in, kept from snapshot to
// snapshot: a collector's snapshots are much the same size, and growing a
// fresh buffer to it every time was most of what a logging collector
// allocated. It is not a sync.Pool because every collection empties a pool,
// and a collector collects many times between two snapshots.
var snapshotBuf struct {
	sync.Mutex
	b    []byte
	keys []string
}

// WriteSnapshot writes the framed snapshot of a to w.
func WriteSnapshot(w io.Writer, a *Aggregate) error {
	snapshotBuf.Lock()
	defer snapshotBuf.Unlock()
	snapshotBuf.b = encodeSnapshot(snapshotBuf.b[:0], a, &snapshotBuf.keys)
	_, err := w.Write(snapshotBuf.b)
	return err
}

// ReadSnapshot reads one framed snapshot from r and decodes it. Truncated,
// corrupted or version-mismatched input yields an error; the returned
// aggregate is nil unless the checksum and every field decoded cleanly.
func ReadSnapshot(r io.Reader) (*Aggregate, error) {
	return decodeSnapshotFrame(snapshotFormat.NewReader(r).Next())
}

// DecodeSnapshot decodes one framed snapshot from b (exactly one frame; no
// trailing bytes are tolerated).
func DecodeSnapshot(b []byte) (*Aggregate, error) {
	return decodeSnapshotFrame(snapshotFormat.Decode(b))
}

func decodeSnapshotFrame(version byte, payload []byte, err error) (*Aggregate, error) {
	if err != nil {
		return nil, fmt.Errorf("notary: snapshot: %w", err)
	}
	return decodeSnapshotPayload(payload, version)
}

// DecodeAggregatePayload decodes a payload written by AppendAggregatePayload
// at the given snapshot payload version (SnapshotVersion when encoding with
// this build). Trailing bytes, corrupt fields and out-of-range versions all
// error; arbitrary input never panics.
func DecodeAggregatePayload(b []byte, version byte) (*Aggregate, error) {
	if oldest := snapshotFormat.MinVersion; version < oldest || version > SnapshotVersion {
		return nil, fmt.Errorf("notary: aggregate payload version %d, this build reads %d..%d",
			version, oldest, SnapshotVersion)
	}
	return decodeSnapshotPayload(b, version)
}

// --- payload encoding ---

func appendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

func appendCount(dst []byte, v int) []byte { return binary.AppendUvarint(dst, uint64(v)) }

func appendString(dst []byte, s string) []byte {
	dst = appendCount(dst, len(s))
	return append(dst, s...)
}

func appendFloat64(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

func appendDateEnc(dst []byte, d timeline.Date) []byte {
	dst = appendCount(dst, d.Year)
	dst = appendCount(dst, int(d.Month))
	return appendCount(dst, d.Day)
}

// appendCounts encodes a code-point counter table: its present keys in
// ascending order, which is the order Counts iterates in.
func appendCounts[K ~uint8 | ~uint16](dst []byte, c *Counts[K]) []byte {
	dst = appendCount(dst, c.Len())
	for k, v := range c.All() {
		dst = appendUvarint(dst, uint64(k))
		dst = appendCount(dst, v)
	}
	return dst
}

// sortedStringKeys returns m's keys in ascending order, in keys' storage.
func sortedStringKeys[V any](keys []string, m map[string]V) []string {
	keys = keys[:0]
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func appendStrIntMap(dst []byte, m map[string]int, keys *[]string) []byte {
	dst = appendCount(dst, len(m))
	*keys = sortedStringKeys(*keys, m)
	for _, k := range *keys {
		dst = appendString(dst, k)
		dst = appendCount(dst, m[k])
	}
	return dst
}

// fpWireClasses is the class behind each flag bit of a fingerprint row's
// byte in the snapshot encoding, bit 0 first. fpClassMask is their union:
// what Add keeps of a cipher list's classes, so a row round-trips.
var fpWireClasses = [7]registry.ClassBits{
	registry.ClassRC4, registry.ClassDES, registry.Class3DES, registry.ClassAEAD,
	registry.ClassNULL, registry.ClassAnon, registry.ClassExport,
}

var fpClassMask = fpCapsFromByte(0x7f)

func fpCapsByte(classes registry.ClassBits) byte {
	var b byte
	for i, c := range fpWireClasses {
		if classes.Has(c) {
			b |= 1 << i
		}
	}
	return b
}

func fpCapsFromByte(b byte) registry.ClassBits {
	var classes registry.ClassBits
	for i, c := range fpWireClasses {
		if b&(1<<i) != 0 {
			classes |= c
		}
	}
	return classes
}

// AppendAggregatePayload appends the snapshot codec's bare varint-packed
// payload of a to dst — no envelope. The federation delta frame embeds this
// payload inside its own frame so the two wire formats share one
// (deterministic, fuzz-hardened) aggregate encoding instead of nesting
// complete frames.
func AppendAggregatePayload(dst []byte, a *Aggregate) []byte {
	var keys []string
	return appendAggregatePayload(dst, a, &keys)
}

func appendAggregatePayload(dst []byte, a *Aggregate, keys *[]string) []byte {
	dst = appendUvarint(dst, a.generation)
	months := a.Months()
	dst = appendCount(dst, len(months))
	for _, m := range months {
		dst = appendMonthStats(dst, a.months[m], keys)
	}
	// Fingerprint lifetimes, one row each. The memoised class is
	// configuration-derived and not written.
	dst = appendCount(dst, len(a.fps))
	*keys = sortedStringKeys(*keys, a.fps)
	for _, fp := range *keys {
		life := a.fps[fp]
		dst = appendString(dst, fp)
		dst = appendDateEnc(dst, life.first)
		dst = appendDateEnc(dst, life.last)
		dst = appendUvarint(dst, uint64(life.conns))
	}
	return dst
}

func appendMonthStats(dst []byte, ms *MonthStats, keys *[]string) []byte {
	dst = appendCount(dst, ms.Month.Year)
	dst = appendCount(dst, int(ms.Month.M))
	for _, v := range ms.N[:payloadSplit] {
		dst = appendCount(dst, v)
	}
	dst = appendCounts(dst, &ms.ByVersion)
	dst = appendStrIntMap(dst, ms.ByClass, keys)
	dst = appendCounts(dst, &ms.ByKex)
	dst = appendCounts(dst, &ms.BySuite)
	dst = appendCounts(dst, &ms.ByCurve)
	dst = appendCounts(dst, &ms.TLS13Variant)
	dst = appendCounts(dst, &ms.ByExtension)
	for _, v := range ms.N[payloadSplit:] {
		dst = appendCount(dst, v)
	}
	// The position sums, then the position counts: two name-keyed tables of
	// the present classes (Count > 0), which PosClass order keeps sorted.
	present := 0
	for _, p := range ms.Pos {
		if p.Count > 0 {
			present++
		}
	}
	dst = appendCount(dst, present)
	for c, p := range ms.Pos {
		if p.Count > 0 {
			dst = appendString(dst, PosClass(c).String())
			dst = appendFloat64(dst, p.Sum)
		}
	}
	dst = appendCount(dst, present)
	for c, p := range ms.Pos {
		if p.Count > 0 {
			dst = appendString(dst, PosClass(c).String())
			dst = appendCount(dst, p.Count)
		}
	}
	*keys = sortedStringKeys(*keys, ms.FPs)
	fps := *keys
	dst = appendCount(dst, len(fps))
	for _, fp := range fps {
		caps := ms.FPs[fp]
		dst = appendString(dst, fp)
		dst = append(dst, fpCapsByte(caps.Classes))
		dst = appendCount(dst, caps.Count)
	}
	// Version 2: the per-month attribution tables. The format's first one,
	// ByFingerprint, repeats the rows' volumes.
	dst = appendCount(dst, len(fps))
	for _, fp := range fps {
		dst = appendString(dst, fp)
		dst = appendCount(dst, ms.FPs[fp].Count)
	}
	return appendStrIntMap(dst, ms.ByClientClass, keys)
}

// --- payload decoding ---

// snapDecoder consumes the payload with sticky error handling: the first
// malformed field poisons the decoder, every later read returns zero, and
// the caller checks err once at the end. All bounds checks live here, so
// arbitrary bytes can never index out of range or allocate beyond what the
// payload can actually describe.
type snapDecoder struct {
	b   []byte
	off int
	err error
	// what names the payload kind in error messages ("snapshot" when empty).
	// The batch codec reuses the decoder for its frame payloads.
	what string
}

func (d *snapDecoder) fail(format string, args ...any) {
	if d.err == nil {
		what := d.what
		if what == "" {
			what = "snapshot"
		}
		d.err = fmt.Errorf("notary: "+what+" payload: "+format, args...)
	}
}

func (d *snapDecoder) remaining() int { return len(d.b) - d.off }

// varint3 reads the varint of one to three bytes at p[off] — every value up
// to 0x1FFFFF, so every code point, date part and ordinary count — and
// returns it with its width. Width 0 means the bytes there are something
// else: a longer varint, or fewer than three bytes before the end of p
// (inside a valid record its three string lengths follow). The caller then
// leaves them to uvarint, which owns the errors. It is small enough to
// inline into the record decoder's loops.
func varint3(p []byte, off int) (v uint32, w int) {
	if off+3 > len(p) {
		return 0, 0
	}
	v = uint32(p[off])
	if v < 0x80 {
		return v, 1
	}
	b := uint32(p[off+1])
	if b < 0x80 {
		return v&0x7f | b<<7, 2
	}
	c := uint32(p[off+2])
	if c < 0x80 {
		return v&0x7f | b&0x7f<<7 | c<<14, 3
	}
	return 0, 0
}

func (d *snapDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	if v, w := varint3(d.b, d.off); w != 0 {
		d.off += w
		return uint64(v)
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// count reads a non-negative int-sized counter. The bound tracks the
// platform int so the conversion can never wrap negative on 32-bit builds,
// and stays at half the range so decoded counters survive summing.
func (d *snapDecoder) count() int {
	v := d.uvarint()
	if v > uint64(math.MaxInt)/2 {
		d.fail("implausible count %d", v)
		return 0
	}
	return int(v)
}

// length reads a collection/string length and checks it against the bytes
// left (each encoded element needs at least min bytes, min >= 1).
func (d *snapDecoder) length(min int) int {
	// A length under 128 that fits — every list and string of a record — is
	// its one byte, settled by a multiplication.
	if b := d.b[d.off:]; d.err == nil && len(b) > 0 && b[0] < 0x80 && int(b[0])*min < len(b) {
		d.off++
		return int(b[0])
	}
	n := d.count()
	if d.err != nil {
		return 0
	}
	if n > d.remaining()/min {
		d.fail("length %d exceeds remaining %d bytes", n, d.remaining())
		return 0
	}
	return n
}

func (d *snapDecoder) str() string {
	n := d.length(1)
	if d.err != nil {
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

func (d *snapDecoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 1 {
		d.fail("unexpected end of payload")
		return 0
	}
	b := d.b[d.off]
	d.off++
	return b
}

func (d *snapDecoder) float64() float64 {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 8 {
		d.fail("unexpected end of payload in float")
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return f
}

func (d *snapDecoder) u16() uint16 {
	v := d.uvarint()
	if v > math.MaxUint16 {
		d.fail("code point %d exceeds uint16", v)
		return 0
	}
	return uint16(v)
}

func (d *snapDecoder) date() timeline.Date {
	y := d.count()
	m := d.count()
	day := d.count()
	if d.err != nil {
		return timeline.Date{}
	}
	if !validDate(y, m, day) {
		d.fail("bad date %d-%d-%d", y, m, day)
		return timeline.Date{}
	}
	return timeline.Date{Year: y, Month: time.Month(m), Day: day}
}

// decodeCounts fills c from the appendCounts encoding. Keys beyond K's
// range are refused; of a repeated key the last entry wins.
func decodeCounts[K ~uint8 | ~uint16](d *snapDecoder, c *Counts[K]) {
	n := d.length(2)
	for i := 0; i < n && d.err == nil; i++ {
		k := d.uvarint()
		if k > uint64(^K(0)) {
			d.fail("map key %d out of range", k)
			return
		}
		c.Set(K(k), d.count())
	}
}

func (d *snapDecoder) strIntMap() map[string]int {
	n := d.length(2)
	m := make(map[string]int, n)
	for i := 0; i < n && d.err == nil; i++ {
		k := d.str()
		m[k] = d.count()
	}
	return m
}

func decodeSnapshotPayload(b []byte, version byte) (*Aggregate, error) {
	d := &snapDecoder{b: b}
	a := NewAggregate()
	a.generation = d.uvarint()
	nMonths := d.length(4)
	for i := 0; i < nMonths && d.err == nil; i++ {
		ms := decodeMonthStats(d, version)
		if d.err != nil {
			break
		}
		if _, dup := a.months[ms.Month]; dup {
			d.fail("duplicate month %v", ms.Month)
			break
		}
		a.months[ms.Month] = ms
	}
	nFP := d.length(4)
	for i := 0; i < nFP && d.err == nil; i++ {
		fp := d.str()
		first := d.date()
		last := d.date()
		conns := d.uvarint()
		if conns > math.MaxInt64/2 { // like count(): never negative, and survives summing
			d.fail("implausible count %d", conns)
		}
		if d.err != nil {
			break
		}
		if _, dup := a.fps[fp]; dup {
			d.fail("duplicate fingerprint %q", fp)
			break
		}
		a.newLife(fp, first, last).conns = int64(conns)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.remaining() != 0 {
		return nil, fmt.Errorf("notary: snapshot payload: %d trailing bytes", d.remaining())
	}
	return a, nil
}

// decodePositions reads the two name-keyed position tables into ms.Pos and
// holds them to what Add and Merge can build: known classes, and per class a
// finite sum with 0 <= Sum <= Count (each term Add sums is idx/(n-1) <= 1).
// Anything else would poison every figure and snapshot downstream — a NaN
// sum survives merge and cannot be marshalled.
func decodePositions(d *snapDecoder, ms *MonthStats) {
	class := func() PosClass {
		name := d.str()
		c, ok := ParsePosClass(name)
		if d.err == nil && !ok {
			d.fail("unknown position class %q", name)
		}
		return c
	}
	var sumOnly [NumPosClasses]bool // in the sums table, not (yet) in the counts table
	nSum := d.length(9)
	for i := 0; i < nSum && d.err == nil; i++ {
		c := class()
		ms.Pos[c].Sum, sumOnly[c] = d.float64(), true
	}
	nCount := d.length(2)
	for i := 0; i < nCount && d.err == nil; i++ {
		c := class()
		ms.Pos[c].Count, sumOnly[c] = d.count(), false
	}
	for c, p := range ms.Pos {
		if d.err != nil {
			return
		}
		if sumOnly[c] {
			d.fail("position class %v has a sum but no count", PosClass(c))
		} else if !(p.Sum >= 0 && p.Sum <= float64(p.Count)) { // also refuses NaN
			d.fail("position class %v: sum %v outside [0, count %d]", PosClass(c), p.Sum, p.Count)
		}
	}
}

func decodeMonthStats(d *snapDecoder, version byte) *MonthStats {
	year := d.count()
	month := d.count()
	if d.err == nil && !validDate(year, month, 1) {
		d.fail("bad month %d-%d", year, month)
	}
	ms := newMonthStats(timeline.Month{Year: year, M: time.Month(month)})
	head, tail := ms.N[:payloadSplit], ms.N[payloadSplit:]
	for c := range head {
		head[c] = d.count()
	}
	decodeCounts(d, &ms.ByVersion)
	ms.ByClass = d.strIntMap()
	decodeCounts(d, &ms.ByKex)
	decodeCounts(d, &ms.BySuite)
	decodeCounts(d, &ms.ByCurve)
	decodeCounts(d, &ms.TLS13Variant)
	decodeCounts(d, &ms.ByExtension)
	for c := range tail {
		tail[c] = d.count()
	}
	decodePositions(d, ms)
	nFPs := d.length(3)
	for i := 0; i < nFPs && d.err == nil; i++ {
		fp := d.str()
		flags := d.byte()
		count := d.count()
		if d.err != nil {
			break
		}
		if _, dup := ms.FPs[fp]; dup {
			d.fail("duplicate fingerprint %q in month %v", fp, ms.Month)
			break
		}
		ms.FPs[fp] = &FPCaps{Classes: fpCapsFromByte(flags), Count: count}
	}
	if version >= 2 {
		d.strIntMap() // the ByFingerprint table: checked like any other, and the rows already say it
		ms.ByClientClass = d.strIntMap()
	}
	return ms
}
