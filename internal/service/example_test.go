package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"

	"tlsage/internal/core"
	"tlsage/internal/service"
	"tlsage/internal/simulate"
)

// Evaluate ad-hoc metric expressions beyond the figure catalog, first
// offline against a simulated study, then over HTTP against a router
// hosting the same study: the two surfaces are one query API, and the
// served answer matches the offline one exactly.
func ExampleNewRouter() {
	study, err := core.Simulate(simulate.DefaultOptions(300), nil)
	if err != nil {
		panic(err)
	}

	// Offline: the text grammar parses into an analysis.Expr and evaluates
	// against the study's cached Frame.
	queries := []string{
		"at(pct(version:tls12 / established), 2018-02)", // a catalog-style read
		"over(null-negotiated / established)",           // whole-dataset ratio
		"max(pct(ext:heartbeat / total))",               // peak heartbeat advertisement
		"pct(sum(kex:ecdhe, kex:tls13) / established)",  // Figure 8's ECDHE series
	}
	fmt.Println("offline:")
	for _, src := range queries {
		res, err := study.Query(src)
		if err != nil {
			panic(err)
		}
		switch res.Kind {
		case "scalar":
			fmt.Printf("  %-46s = %8.4f\n", res.Query, res.Value)
		default:
			last := res.Series.Points[len(res.Series.Points)-1]
			fmt.Printf("  %-46s = series over %d months (last: %s %.2f)\n",
				res.Query, len(res.Series.Points), last.Month, last.Value)
		}
	}

	// Remote: the same study behind a multi-study router; POST the same
	// expression to /studies/notary/query and compare.
	rt := service.NewRouter()
	if err := rt.Add("notary", service.NewServer(study)); err != nil {
		panic(err)
	}
	defer rt.Close()
	hs := httptest.NewServer(rt.Handler())
	defer hs.Close()

	const expr = "over(null-negotiated / established)"
	body, err := json.Marshal(map[string]string{"query": expr})
	if err != nil {
		panic(err)
	}
	resp, err := http.Post(hs.URL+"/studies/notary/query", "application/json", bytes.NewReader(body))
	if err != nil {
		panic(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		panic(err)
	}
	var served struct {
		Query string  `json:"query"`
		Value float64 `json:"value"`
	}
	if err := json.Unmarshal(raw, &served); err != nil {
		panic(err)
	}
	offline, err := study.Query(expr)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nover HTTP (generation %s):\n  %-46s = %8.4f\n",
		resp.Header.Get("X-Generation"), served.Query, served.Value)
	if served.Value == offline.Value {
		fmt.Println("  matches the offline evaluation exactly")
	} else {
		fmt.Printf("  served %v, offline %v\n", served.Value, offline.Value)
	}
	// Output:
	// offline:
	//   at(pct(version:tls12 / established), 2018-02)  =  93.5374
	//   over(null-negotiated / established)            =   2.4916
	//   max(pct(ext:heartbeat / total))                =  32.6667
	//   pct(sum(kex:ecdhe, kex:tls13) / established)   = series over 75 months (last: 2018-04 94.46)
	//
	// over HTTP (generation 22500):
	//   over(null-negotiated / established)            =   2.4916
	//   matches the offline evaluation exactly
}
