package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"tlsage/internal/core"
	"tlsage/internal/notary"
)

// reference is the in-process model of what a server should hold: a
// core.Study into which the shard of every acknowledged stream is merged
// once per ack. Aggregate.Merge is linear, so each distinct stream is parsed
// into a shard once and merging stays cheap however many times it is acked.
type reference struct {
	c      *corpus
	study  *core.Study
	shards map[chunk]*notary.Aggregate
}

func newReference(c *corpus) *reference {
	return &reference{c: c, study: core.NewLiveStudy(), shards: map[chunk]*notary.Aggregate{}}
}

// adopt replaces the model with a recovered study: after a crash the server
// holds whatever recovery rebuilt, not what was acknowledged.
func (r *reference) adopt(st *core.Study) { r.study = st }

func (r *reference) shard(s chunk) (*notary.Aggregate, error) {
	if sh := r.shards[s]; sh != nil {
		return sh, nil
	}
	sh := r.study.NewShard()
	if err := notary.ReadLog(bytes.NewReader(r.c.tsvBody(s)), sh); err != nil {
		return nil, err
	}
	r.shards[s] = sh
	return sh, nil
}

// merge folds the stream's shard into the model once per acknowledgement.
func (r *reference) merge(acks map[chunk]int) error {
	for s, times := range acks {
		sh, err := r.shard(s)
		if err != nil {
			return err
		}
		for i := 0; i < times; i++ {
			if err := r.study.MergeShard(sh); err != nil {
				return err
			}
		}
	}
	return nil
}

func (r *reference) generation() uint64 {
	_, _, gen, _ := r.study.Counts()
	return gen
}

// serverJSON encodes v the way the service's writeJSON does, so bodies can
// be compared byte for byte.
func serverJSON(v any) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

func (r *reference) scalarsBody() ([]byte, error) {
	sc, err := r.study.Scalars()
	if err != nil {
		return nil, err
	}
	return serverJSON(sc)
}

func (r *reference) queryBody(text string) ([]byte, error) {
	res, err := r.study.Query(text)
	if err != nil {
		return nil, err
	}
	return res.EncodeJSONBody()
}

// floatSlack is the relative difference two numbers may show and still count
// as the same. The counters are integers and merge exactly, but the
// position() accumulators are float sums, and the server folds shards in
// arrival order while the model folds them stream by stream: the two sums
// can differ in the last bits.
const floatSlack = 1e-9

// sameJSON reports whether two bodies are byte-identical or, failing that,
// the same JSON document with numbers equal to within floatSlack.
func sameJSON(got, want []byte) bool {
	if bytes.Equal(got, want) {
		return true
	}
	var g, w any
	if json.Unmarshal(got, &g) != nil || json.Unmarshal(want, &w) != nil {
		return false
	}
	return sameValue(g, w)
}

func sameValue(g, w any) bool {
	switch w := w.(type) {
	case float64:
		g, ok := g.(float64)
		return ok && math.Abs(g-w) <= floatSlack*math.Max(math.Abs(g), math.Abs(w))
	case []any:
		g, ok := g.([]any)
		if !ok || len(g) != len(w) {
			return false
		}
		for i := range w {
			if !sameValue(g[i], w[i]) {
				return false
			}
		}
		return true
	case map[string]any:
		g, ok := g.(map[string]any)
		if !ok || len(g) != len(w) {
			return false
		}
		for k, wv := range w {
			if gv, ok := g[k]; !ok || !sameValue(gv, wv) {
				return false
			}
		}
		return true
	default:
		return g == w
	}
}

// check compares a served study with the model: generation, the /scalars
// body and the body of every hot query must be identical. base is the
// study's URL prefix. It returns how many comparisons it made and every
// mismatch it found.
func (r *reference) check(cl *client, base string) (checks int, errs []error) {
	var health struct {
		Generation uint64 `json:"generation"`
	}
	checks++
	if err := cl.getJSON(base+"/healthz", &health); err != nil {
		errs = append(errs, err)
	} else if want := r.generation(); health.Generation != want {
		errs = append(errs, fmt.Errorf("%s/healthz: generation %d, want %d", base, health.Generation, want))
	}
	checks++
	if want, err := r.scalarsBody(); err != nil {
		errs = append(errs, err)
	} else if got, err := cl.get(base + "/scalars"); err != nil {
		errs = append(errs, err)
	} else if !sameJSON(got, want) {
		errs = append(errs, fmt.Errorf("%s/scalars differs from the reference study (%d vs %d bytes)", base, len(got), len(want)))
	}
	for _, text := range hotQueries {
		checks++
		want, err := r.queryBody(text)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		_, got, err := cl.query(base, text, 0)
		if err != nil {
			errs = append(errs, err)
		} else if !sameJSON(got, want) {
			errs = append(errs, fmt.Errorf("%s/query %q differs from the reference study", base, text))
		}
	}
	return checks, errs
}
