package analysis

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"tlsage/internal/timeline"
)

// JSON marshalling for the query-service wire format. The shapes are
// deliberately flat and lowercase so the endpoints are pleasant to consume
// with curl/jq; months render as "YYYY-MM", dates as "YYYY-MM-DD".

// MarshalJSON renders a point as {"month":"2018-02","value":12.3}.
func (p Point) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Month string  `json:"month"`
		Value float64 `json:"value"`
	}{p.Month.String(), p.Value})
}

// UnmarshalJSON parses the wire shape back into a point (the remote-query
// client path).
func (p *Point) UnmarshalJSON(b []byte) error {
	var raw struct {
		Month string  `json:"month"`
		Value float64 `json:"value"`
	}
	if err := json.Unmarshal(b, &raw); err != nil {
		return err
	}
	m, err := parseMonth(raw.Month)
	if err != nil {
		return err
	}
	p.Month, p.Value = m, raw.Value
	return nil
}

// MarshalJSON renders a series as its name plus monthly points.
func (s Series) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Name   string  `json:"name"`
		Points []Point `json:"points"`
	}{s.Name, s.Points})
}

// UnmarshalJSON parses a series; the month index is left nil, so Value
// falls back to a linear scan.
func (s *Series) UnmarshalJSON(b []byte) error {
	var raw struct {
		Name   string  `json:"name"`
		Points []Point `json:"points"`
	}
	if err := json.Unmarshal(b, &raw); err != nil {
		return err
	}
	s.Name, s.Points, s.index = raw.Name, raw.Points, nil
	return nil
}

// queryResultJSON is the wire shape of a query answer; Series is present
// only for series results.
type queryResultJSON struct {
	Query  string  `json:"query"`
	Kind   string  `json:"kind"`
	Series *Series `json:"series,omitempty"`
	Value  float64 `json:"value"`
}

// MarshalJSON renders a query result with its canonical query text.
func (r QueryResult) MarshalJSON() ([]byte, error) {
	out := queryResultJSON{Query: r.Query, Kind: r.Kind, Value: r.Value}
	if r.Kind == "series" {
		s := r.Series
		out.Series = &s
	}
	return json.Marshal(out)
}

// EncodeJSONBody renders the body POST /query serves, cached or not: the
// bytes json.MarshalIndent with a two-space indent produces, plus a trailing
// newline — the shape the service's JSON writer gives every other endpoint.
// It appends the bytes directly instead of going through MarshalJSON: the
// reflective path costs one json.Marshal per point, and this runs on every
// query that is not a result-cache hit (≈ 9 µs for a 75-point series, where
// json.MarshalIndent over the MarshalJSON methods took ≈ 140 µs). A
// differential test pins it to json.MarshalIndent.
func (r QueryResult) EncodeJSONBody() ([]byte, error) {
	size := 96 + len(r.Query)
	if r.Kind == "series" {
		size += 64 + len(r.Series.Name) + 88*len(r.Series.Points)
	}
	b := make([]byte, 0, size)
	var err error
	b = append(b, "{\n  \"query\": "...)
	b = appendJSONString(b, r.Query)
	b = append(b, ",\n  \"kind\": "...)
	b = appendJSONString(b, r.Kind)
	if r.Kind == "series" {
		b = append(b, ",\n  \"series\": {\n    \"name\": "...)
		b = appendJSONString(b, r.Series.Name)
		b = append(b, ",\n    \"points\": "...)
		switch {
		case r.Series.Points == nil:
			b = append(b, "null"...)
		case len(r.Series.Points) == 0:
			b = append(b, "[]"...)
		default:
			for i, p := range r.Series.Points {
				if i == 0 {
					b = append(b, "[\n      {\n        \"month\": \""...)
				} else {
					b = append(b, ",\n      {\n        \"month\": \""...)
				}
				b = appendMonth(b, p.Month)
				b = append(b, "\",\n        \"value\": "...)
				if b, err = appendJSONFloat(b, p.Value); err != nil {
					return nil, err
				}
				b = append(b, "\n      }"...)
			}
			b = append(b, "\n    ]"...)
		}
		b = append(b, "\n  }"...)
	}
	b = append(b, ",\n  \"value\": "...)
	if b, err = appendJSONFloat(b, r.Value); err != nil {
		return nil, err
	}
	return append(b, "\n}\n"...), nil
}

// appendJSONString appends s as encoding/json renders a string. Text that
// needs no escaping under json.Marshal's rules (which also escape <, > and
// &) is copied; anything else takes json.Marshal itself.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(b, quoted...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendMonth appends m as Month.String renders it (which needs no JSON
// escaping: digits and dashes only).
func appendMonth(b []byte, m timeline.Month) []byte {
	y, mo := m.Year, int(m.M)
	if y < 0 || y > 9999 || mo < 0 || mo > 99 {
		return append(b, m.String()...)
	}
	return append(b, byte('0'+y/1000), byte('0'+y/100%10), byte('0'+y/10%10), byte('0'+y%10),
		'-', byte('0'+mo/10), byte('0'+mo%10))
}

// appendJSONFloat appends f under encoding/json's float64 rules: the
// shortest representation that round-trips, exponent form below 1e-6 and
// from 1e21 with a two-digit exponent's leading zero dropped, and NaN and
// the infinities rejected.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, fmt.Errorf("analysis: query result: unsupported value %v", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && (b[n-3] == '-' || b[n-3] == '+') && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

// UnmarshalJSON parses a served query result (the remote-query client path).
func (r *QueryResult) UnmarshalJSON(b []byte) error {
	var raw queryResultJSON
	if err := json.Unmarshal(b, &raw); err != nil {
		return err
	}
	if raw.Kind != "series" && raw.Kind != "scalar" {
		return fmt.Errorf("query result kind %q (want series or scalar)", raw.Kind)
	}
	*r = QueryResult{Query: raw.Query, Kind: raw.Kind, Value: raw.Value}
	if raw.Series != nil {
		r.Series = *raw.Series
	}
	return nil
}

// figureEventJSON is the wire shape of one attack-event marker.
type figureEventJSON struct {
	Name string `json:"name"`
	Date string `json:"date"`
}

// MarshalJSON renders a figure with its series and event markers.
func (f Figure) MarshalJSON() ([]byte, error) {
	events := make([]figureEventJSON, 0, len(f.Events))
	for _, e := range f.Events {
		events = append(events, figureEventJSON{Name: e.Name, Date: e.Date.String()})
	}
	return json.Marshal(struct {
		ID     string            `json:"id"`
		Title  string            `json:"title"`
		Series []Series          `json:"series"`
		Events []figureEventJSON `json:"events"`
	}{f.ID, f.Title, f.Series, events})
}

// MarshalJSON renders a scalar row including its derived deviation.
func (s Scalar) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		ID        string  `json:"id"`
		Name      string  `json:"name"`
		Paper     float64 `json:"paper"`
		Measured  float64 `json:"measured"`
		Deviation float64 `json:"deviation"`
		Unit      string  `json:"unit"`
	}{s.ID, s.Name, s.Paper, s.Measured, s.Deviation(), s.Unit})
}

// metricSpecJSON is the wire shape of one catalog metric: its series name
// and its expression in the query grammar, so any catalog series can be
// re-evaluated through POST /query.
type metricSpecJSON struct {
	Name  string `json:"name"`
	Query string `json:"query"`
}

// MarshalJSON renders a catalog entry as metadata. The legacy "series" name
// list is kept alongside the expression-bearing "metrics".
func (s FigureSpec) MarshalJSON() ([]byte, error) {
	series := make([]string, 0, len(s.Metrics))
	metrics := make([]metricSpecJSON, 0, len(s.Metrics))
	for _, m := range s.Metrics {
		series = append(series, m.Name)
		metrics = append(metrics, metricSpecJSON{Name: m.Name, Query: m.Expr.String()})
	}
	return json.Marshal(struct {
		Num     int              `json:"num"`
		ID      string           `json:"id"`
		Name    string           `json:"name"`
		Title   string           `json:"title"`
		Series  []string         `json:"series"`
		Metrics []metricSpecJSON `json:"metrics"`
		Events  []string         `json:"events,omitempty"`
	}{s.Num, s.ID, s.Name, s.Title, series, metrics, s.Events})
}
