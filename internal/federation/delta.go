// Package federation ships merged aggregate deltas between collection
// tiers: edge collectors near the traffic accumulate records into ordinary
// notary aggregates and periodically POST the accumulated-but-unshipped
// slice upstream, where a core node folds it into a hosted study via the
// same Aggregate.Merge path local ingestion uses. Upstream bandwidth drops
// from O(records) to O(months×counters), and because Merge is commutative
// and associative the federated study is byte-identical to a single node
// ingesting every record itself.
//
// The wire format is a delta frame in the shared envelope (see package
// framing). Its payload carries the pushing source's name, the base
// generation the delta starts after (the exactly-once cursor: this delta
// covers records base+1..base+Records at the source), the aggregate's
// snapshot payload version, and the snapshot codec's varint payload of the
// aggregate itself (notary.AppendAggregatePayload) — so the delta and
// snapshot formats share one deterministic, fuzz-hardened aggregate encoding.
//
// Decoding is defensive in the snapshot/batch codec style: every length is
// bounds-checked against the bytes present, so arbitrary or corrupted input
// errors instead of panicking or allocating implausibly (FuzzReadDelta).
package federation

import (
	"encoding/binary"
	"fmt"
	"io"

	"tlsage/internal/framing"
	"tlsage/internal/notary"
)

// DeltaVersion is the delta frame version byte written by this build.
const DeltaVersion = 1

// deltaFormat is the TLSD envelope. A delta is O(months×counters) — a few
// MiB for the multi-year study — so the 1 GiB cap keeps a corrupt length
// field from driving a GiB-scale allocation.
var deltaFormat = framing.Format{
	Magic:      "TLSD",
	MinVersion: DeltaVersion,
	Version:    DeltaVersion,
	LenBytes:   4,
	MaxPayload: 1 << 30,
}

// MaxDeltaSource bounds the source-name length on the wire.
const MaxDeltaSource = 256

// ContentTypeDelta is the Content-Type a delta frame travels under
// (POST /merge).
const ContentTypeDelta = "application/x-tlsage-delta"

// Delta is one shipped slice of a source's aggregate: the contributions of
// records Base+1 .. Base+Agg.Generation() at that source. The receiver
// tracks each source's applied-through generation, so a re-sent delta is
// recognized as a duplicate instead of double-counting.
type Delta struct {
	// Source names the pushing collector; the receiver sequences deltas per
	// source.
	Source string
	// Base is the source generation this delta starts after: the sender had
	// already shipped (and had acknowledged) Base records when it cut this
	// delta.
	Base uint64
	// Agg holds the merged contributions of the delta's records.
	Agg *notary.Aggregate
}

// Records is how many source records the delta covers.
func (d *Delta) Records() uint64 { return d.Agg.Generation() }

// AppendDelta appends the complete framed delta to dst and returns the
// extended slice. Encoding is deterministic for equal content.
func AppendDelta(dst []byte, d *Delta) ([]byte, error) {
	if len(d.Source) > MaxDeltaSource {
		return nil, fmt.Errorf("federation: source name %d bytes long, max %d", len(d.Source), MaxDeltaSource)
	}
	if d.Agg == nil {
		return nil, fmt.Errorf("federation: delta without an aggregate")
	}
	dst, mark := deltaFormat.Begin(dst)
	dst = binary.AppendUvarint(dst, uint64(len(d.Source)))
	dst = append(dst, d.Source...)
	dst = binary.AppendUvarint(dst, d.Base)
	dst = append(dst, notary.SnapshotVersion)
	dst = notary.AppendAggregatePayload(dst, d.Agg)
	dst, err := deltaFormat.End(dst, mark)
	if err != nil {
		return nil, fmt.Errorf("federation: delta: %w", err)
	}
	return dst, nil
}

// EncodeDelta frames d into a fresh buffer.
func EncodeDelta(d *Delta) ([]byte, error) { return AppendDelta(nil, d) }

// ReadDelta reads one framed delta from r and decodes it. Truncated,
// corrupted or version-mismatched input yields an error; the returned delta
// is nil unless the checksum and every field decoded cleanly.
func ReadDelta(r io.Reader) (*Delta, error) {
	return decodeDeltaFrame(deltaFormat.NewReader(r).Next())
}

// DecodeDelta decodes one framed delta from b (exactly one frame; no
// trailing bytes are tolerated).
func DecodeDelta(b []byte) (*Delta, error) {
	return decodeDeltaFrame(deltaFormat.Decode(b))
}

func decodeDeltaFrame(_ byte, payload []byte, err error) (*Delta, error) {
	if err != nil {
		return nil, fmt.Errorf("federation: delta: %w", err)
	}
	return decodeDeltaPayload(payload)
}

// decodeDeltaPayload parses the checksummed payload: source, base,
// aggregate payload version, aggregate payload.
func decodeDeltaPayload(payload []byte) (*Delta, error) {
	srcLen, n := binary.Uvarint(payload)
	if n <= 0 {
		return nil, fmt.Errorf("federation: delta payload: bad source length varint")
	}
	rest := payload[n:]
	if srcLen > MaxDeltaSource || srcLen > uint64(len(rest)) {
		return nil, fmt.Errorf("federation: delta payload: source length %d exceeds remaining %d bytes", srcLen, len(rest))
	}
	source := string(rest[:srcLen])
	rest = rest[srcLen:]
	base, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, fmt.Errorf("federation: delta payload: bad base generation varint")
	}
	rest = rest[n:]
	if len(rest) < 1 {
		return nil, fmt.Errorf("federation: delta payload: missing aggregate version byte")
	}
	agg, err := notary.DecodeAggregatePayload(rest[1:], rest[0])
	if err != nil {
		return nil, err
	}
	return &Delta{Source: source, Base: base, Agg: agg}, nil
}
