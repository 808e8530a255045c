package analysis

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"tlsage/internal/notary"
	"tlsage/internal/timeline"
)

func TestFigureJSONShape(t *testing.T) {
	fig := Figure{
		ID:    "Figure 1",
		Title: "Versions",
		Series: []Series{{
			Name: "TLSv12",
			Points: []Point{
				{Month: timeline.M(2018, time.February), Value: 90.25},
			},
		}},
		Events: attackEvents(timeline.EventPOODLE),
	}
	b, err := json.Marshal(fig)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		ID     string `json:"id"`
		Title  string `json:"title"`
		Series []struct {
			Name   string `json:"name"`
			Points []struct {
				Month string  `json:"month"`
				Value float64 `json:"value"`
			} `json:"points"`
		} `json:"series"`
		Events []struct {
			Name string `json:"name"`
			Date string `json:"date"`
		} `json:"events"`
	}
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.ID != "Figure 1" || decoded.Title != "Versions" {
		t.Errorf("figure header: %+v", decoded)
	}
	if len(decoded.Series) != 1 || decoded.Series[0].Name != "TLSv12" {
		t.Fatalf("series: %+v", decoded.Series)
	}
	p := decoded.Series[0].Points[0]
	if p.Month != "2018-02" || p.Value != 90.25 {
		t.Errorf("point = %+v, want 2018-02 / 90.25", p)
	}
	if len(decoded.Events) != 1 || decoded.Events[0].Name != timeline.EventPOODLE ||
		!strings.HasPrefix(decoded.Events[0].Date, "2014-10") {
		t.Errorf("events: %+v", decoded.Events)
	}
}

func TestScalarJSONIncludesDeviation(t *testing.T) {
	b, err := json.Marshal(Scalar{ID: "S7a", Name: "x", Paper: 0.5, Measured: 0.75, Unit: "%"})
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded["id"] != "S7a" || decoded["unit"] != "%" {
		t.Errorf("scalar json: %v", decoded)
	}
	if dev, ok := decoded["deviation"].(float64); !ok || dev != 0.25 {
		t.Errorf("deviation = %v, want 0.25", decoded["deviation"])
	}
}

func TestFigureSpecJSONCarriesSeriesNames(t *testing.T) {
	spec, ok := SpecByName("negotiated-classes")
	if !ok {
		t.Fatal("missing catalog entry")
	}
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Num    int      `json:"num"`
		Name   string   `json:"name"`
		Series []string `json:"series"`
		Events []string `json:"events"`
	}
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Num != 2 || decoded.Name != "negotiated-classes" {
		t.Errorf("spec header: %+v", decoded)
	}
	want := []string{"AEAD", "CBC", "RC4"}
	if len(decoded.Series) != len(want) {
		t.Fatalf("series: %v", decoded.Series)
	}
	for i, s := range want {
		if decoded.Series[i] != s {
			t.Errorf("series[%d] = %q, want %q", i, decoded.Series[i], s)
		}
	}
	if len(decoded.Events) == 0 {
		t.Error("catalog events missing from json")
	}
	// The whole catalog must marshal (the service /metrics endpoint).
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
