package main

import (
	"fmt"
	"math/rand"

	"tlsage/internal/analysis"
)

// hotQueries are the 16 texts a dashboard keeps asking: catalog series plus
// the fp:, agent: and family:* forms. They are drawn Zipf(s=1) in this
// order, so the first is asked about five times as often as the last.
var hotQueries = []string{
	"pct(version:tls12 / established)",
	"pct(class:aead / established)",
	"pct(adv-rc4 / total)",
	"pct(kex:rsa / established)",
	"pct(sum(kex:ecdhe, kex:tls13) / established)",
	"pct(neg-aead / established)",
	"pct(agent:browsers / fp-conns)",
	"pct(fp:other / fp:*)",
	"pct(adv-aes128-gcm / total)",
	"pct(ext:extended_master_secret / total)",
	"pct(agent:libraries / fp-conns)",
	"max(pct(curve:x25519 / curve:*))",
	"pct(fp:* / total)",
	"at(pct(adv-tls13 / total), 2018-04)",
	"position(3des)",
	"over(agent:malware / fp-conns)",
}

// hotShare is the share of queries drawn from hotQueries; the rest are
// unique texts that can only miss.
const hotShare = 0.8

// familyColumns are the keyed selectors the unique-query generator pairs up,
// beside every plain column analysis.ColumnNames lists.
var familyColumns = []string{
	"version:ssl3", "version:tls10", "version:tls11", "version:tls12", "version:tls13", "version:*",
	"class:aead", "class:cbc", "class:rc4", "class:des", "class:3des", "class:*",
	"kex:rsa", "kex:dhe", "kex:ecdhe", "kex:tls13", "kex:*",
	"ext:renegotiation_info", "ext:encrypt_then_mac", "ext:extended_master_secret",
	"ext:session_ticket", "ext:server_name", "ext:heartbeat", "ext:supported_versions",
	"agent:libraries", "agent:browsers", "agent:os-tools", "agent:mobile-apps", "agent:dev-tools",
	"agent:av", "agent:cloud-storage", "agent:email", "agent:malware", "agent:*",
	"fp:other", "fp:*", "curve:*",
}

var uniqueReducers = []string{"mean", "min", "max", "first", "last"}

// Months the at() form of a unique query samples: the study window.
const (
	firstYear, firstMonth = 2012, 2
	studyMonths           = 75
)

// queryMix draws the dashboard mix for one client: hotShare of the draws
// come from hotQueries by Zipf rank, the others walk a seeded permutation of
// every (column pair × form) text, so no unique text repeats within a run
// and clients never share one.
type queryMix struct {
	rnd     *rand.Rand
	zipf    []float64 // cumulative weights over hotQueries
	cols    []string
	forms   int
	total   uint64
	offset  uint64
	stride  uint64
	next    uint64 // this client's next index into the permutation
	clients uint64
	hot     map[string]bool
}

// newQueryMix builds client's mix out of clients sharing one seed.
func newQueryMix(seed int64, client, clients int) *queryMix {
	m := &queryMix{
		rnd:     rand.New(rand.NewSource(seed*1000003 + int64(client))),
		cols:    append(analysis.ColumnNames(), familyColumns...),
		forms:   len(uniqueReducers) + 1 + studyMonths,
		next:    uint64(client),
		clients: uint64(clients),
		hot:     make(map[string]bool, len(hotQueries)),
	}
	var sum float64
	for i := range hotQueries {
		sum += 1 / float64(i+1)
		m.zipf = append(m.zipf, sum)
		m.hot[hotQueries[i]] = true
	}
	n := uint64(len(m.cols))
	m.total = n * (n - 1) * uint64(m.forms)
	// offset and stride depend on the seed alone, so every client walks the
	// same permutation and takes every clients-th element of it.
	shared := rand.New(rand.NewSource(seed))
	m.offset = shared.Uint64() % m.total
	m.stride = shared.Uint64()%m.total | 1
	for gcd(m.stride, m.total) != 1 {
		m.stride += 2
	}
	return m
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// distinct is how many different unique texts the generator can produce.
func (m *queryMix) distinct() uint64 { return m.total }

// draw returns the next query text and whether it is one of the hot ones.
func (m *queryMix) draw() (text string, hot bool) {
	if m.rnd.Float64() < hotShare {
		x := m.rnd.Float64() * m.zipf[len(m.zipf)-1]
		for i, w := range m.zipf {
			if x < w {
				return hotQueries[i], true
			}
		}
		return hotQueries[len(hotQueries)-1], true
	}
	return m.unique(), false
}

// unique returns the client's next never-repeated text.
func (m *queryMix) unique() string {
	for {
		idx := (m.offset + (m.next%m.total)*m.stride) % m.total
		m.next += m.clients
		if text := m.uniqueAt(idx); !m.hot[text] {
			return text
		}
	}
}

// uniqueAt decodes one index of the (numerator, denominator, form) product.
func (m *queryMix) uniqueAt(idx uint64) string {
	n := uint64(len(m.cols))
	form := int(idx % uint64(m.forms))
	pair := idx / uint64(m.forms)
	a, b := pair/(n-1), pair%(n-1)
	if b >= a {
		b++ // skip the diagonal: numerator and denominator differ
	}
	ratio := fmt.Sprintf("pct(%s / %s)", m.cols[a], m.cols[b])
	switch {
	case form < len(uniqueReducers):
		return uniqueReducers[form] + "(" + ratio + ")"
	case form == len(uniqueReducers):
		return fmt.Sprintf("over(%s / %s)", m.cols[a], m.cols[b])
	default:
		k := form - len(uniqueReducers) - 1 + firstMonth - 1
		return fmt.Sprintf("at(%s, %04d-%02d)", ratio, firstYear+k/12, k%12+1)
	}
}
