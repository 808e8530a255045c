package analysis

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"time"

	"tlsage/internal/notary"
	"tlsage/internal/timeline"
)

// The JSON a figure, a scalar (with its deviation) and a catalog entry (with
// its series names and events) marshal to; the whole catalog marshals too,
// as /metrics serves it.
func TestFigureJSONShape(t *testing.T) {
	fig := Figure{ID: "Figure 1", Title: "Versions", Events: attackEvents(timeline.EventPOODLE),
		Series: []Series{{Name: "TLSv12", Points: []Point{{Month: timeline.M(2018, time.February), Value: 90.25}}}}}
	spec, _ := SpecByName("negotiated-classes")
	for name, c := range map[string]struct {
		v    any
		want string
	}{
		"figure": {fig, `{"id":"Figure 1","title":"Versions","series":[{"name":"TLSv12","points":[{"month":"2018-02","value":90.25}]}],"events":[{"name":"POODLE","date":"2014-10-14"}]}`},
		"scalar": {Scalar{ID: "S7a", Name: "x", Paper: 0.5, Measured: 0.75, Unit: "%"}, `{"id":"S7a","name":"x","paper":0.5,"measured":0.75,"deviation":0.25,"unit":"%"}`},
		"spec": {spec, `{"num":2,"id":"Figure 2","name":"negotiated-classes","title":"Negotiated connections using RC4, CBC or AEAD (%)",` +
			`"series":["AEAD","CBC","RC4"],"metrics":[{"name":"AEAD","query":"pct(class:aead / established)"},{"name":"CBC","query":"pct(class:cbc / established)"},` +
			`{"name":"RC4","query":"pct(class:rc4 / established)"}],"events":["Lucky13","POODLE","RC4","Snowden","RC4 passwords","RC4 no more","Sweet32"]}`},
	} {
		t.Run(name, func(t *testing.T) {
			if b, err := json.Marshal(c.v); err != nil || string(b) != c.want {
				t.Errorf("%s, err %v; want %s", b, err, c.want)
			}
		})
	}
	if _, err := json.Marshal(Catalog()); err != nil {
		t.Fatalf("catalog marshal: %v", err)
	}
}

// referenceJSONBody is what EncodeJSONBody replaced: the reflective encoder
// the service's writeJSON uses.
func referenceJSONBody(r QueryResult) ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func requireBodyParity(t *testing.T, r QueryResult) {
	t.Helper()
	want, wantErr := referenceJSONBody(r)
	got, gotErr := r.EncodeJSONBody()
	if (wantErr != nil) != (gotErr != nil) {
		t.Fatalf("%q: error %v, reference error %v", r.Query, gotErr, wantErr)
	}
	if wantErr == nil && !bytes.Equal(got, want) {
		t.Fatalf("%q: body differs from json.MarshalIndent\n got %q\nwant %q", r.Query, got, want)
	}
}

// TestEncodeJSONBodyMatchesMarshalIndent pins the hand-appended query body
// byte for byte to the reflective encoder it replaced: over every catalog
// metric and the benchmark's 16 hot dashboard texts on a populated and an
// empty frame, over NaN and the infinities (both must refuse), and over
// randomly generated results with hostile strings, extreme floats, odd
// months and nil, empty and long point lists.
func TestEncodeJSONBodyMatchesMarshalIndent(t *testing.T) {
	texts := []string{
		"pct(version:tls12 / established)", "pct(class:aead / established)", "pct(adv-rc4 / total)",
		"pct(kex:rsa / established)", "pct(sum(kex:ecdhe, kex:tls13) / established)",
		"pct(neg-aead / established)", "pct(agent:browsers / fp-conns)", "pct(fp:other / fp:*)",
		"pct(adv-aes128-gcm / total)", "pct(ext:extended_master_secret / total)",
		"pct(agent:libraries / fp-conns)", "max(pct(curve:x25519 / curve:*))", "pct(fp:* / total)",
		"at(pct(adv-tls13 / total), 2018-04)", "position(3des)", "over(agent:malware / fp-conns)",
	}
	for _, spec := range Catalog() {
		for _, m := range spec.Metrics {
			texts = append(texts, m.Expr.String())
		}
	}
	agg, _ := classifiedAgg(t)
	for _, f := range []*Frame{NewFrame(agg), NewFrame(notary.NewAggregate())} {
		for _, text := range texts {
			requireBodyParity(t, mustCompile(t, text, f).Eval())
		}
	}

	month := timeline.M(2016, time.May)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, r := range []QueryResult{
			{Query: "scalar", Kind: "scalar", Value: bad},
			{Query: "point", Kind: "series", Series: Series{Points: []Point{{month, 1}, {month, bad}}}},
			{Query: "hidden", Kind: "scalar", Value: 1, Series: Series{Points: []Point{{month, bad}}}},
		} {
			requireBodyParity(t, r)
			if _, err := r.EncodeJSONBody(); (err != nil) != (r.Query != "hidden") {
				t.Errorf("%s %v: err = %v", r.Query, bad, err)
			}
		}
	}

	rnd := rand.New(rand.NewSource(11))
	alphabet := []string{"a", "Z", "9", " ", "(", "/", "\"", "\\", "<", ">", "&", "\n", "\t", "\x00", "\x1f", "\x7f",
		"\b", "\f", "é", "\u2028", "\u2029", "\xff", "\xc3", "😀"}
	str := func() string {
		var s string
		for n := rnd.Intn(12); n > 0; n-- {
			s += alphabet[rnd.Intn(len(alphabet))]
		}
		return s
	}
	float := func() float64 {
		switch rnd.Intn(6) {
		case 0:
			return []float64{0, math.Copysign(0, -1), 1e-6, 1e-7, 1e21, 1e20, -1e21, 5e-324, math.MaxFloat64, 100, 33.3}[rnd.Intn(11)]
		case 1:
			return float64(rnd.Intn(2000)-1000) / 8
		case 2:
			return 100 * rnd.Float64()
		}
		for {
			if f := math.Float64frombits(rnd.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	}
	for i := 0; i < 3000; i++ {
		r := QueryResult{Query: str(), Kind: []string{"series", "scalar", str()}[rnd.Intn(3)], Value: float()}
		r.Series.Name = str()
		switch rnd.Intn(4) {
		case 0: // nil points
		case 1:
			r.Series.Points = []Point{}
		default:
			for n := rnd.Intn(90); n > 0; n-- {
				m := timeline.M(2012+rnd.Intn(8), time.Month(1+rnd.Intn(12)))
				if rnd.Intn(20) == 0 {
					m = timeline.Month{Year: rnd.Intn(30000) - 10000, M: time.Month(rnd.Intn(300) - 100)}
				}
				r.Series.Points = append(r.Series.Points, Point{m, float()})
			}
		}
		requireBodyParity(t, r)
	}
}
