package analysis

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"tlsage/internal/clientdb"
	"tlsage/internal/registry"
	"tlsage/internal/timeline"
)

// Expr is a metric expression over a Frame — the query API the figure
// catalog, the ad-hoc CLI/service queries and the impact metrics all share.
// Unlike the closure-based evaluators it replaces, an Expr is pure data: its
// text is the compact grammar (ParseQuery / String) and it is evaluated by
// one engine (Compile → Plan). Its fields are unexported, so ParseQuery,
// which checks every node as it builds it, is the only way to build one:
// every Expr is valid, and the zero Expr is not a query.
//
// An expression has one of three kinds:
//
//   - column: a dense per-month integer counter — a named frame column
//     ("established", "adv-rc4"), a keyed family selector
//     ("version:tls12", "class:aead", "kex:ecdhe", "ext:heartbeat",
//     "curve:x25519", "tls13:tls13-google"), a family wildcard summing every
//     observed key ("curve:*"), or an element-wise sum of columns.
//   - series: one float64 value per month — pct(num / den) with the figure
//     convention that an empty denominator yields 0, or position(class),
//     the Figure 5 relative-position metric. A column used where a series
//     is expected is promoted to its raw counts.
//   - scalar: a single value — at(series, YYYY-MM), over(num / den) (the
//     whole-window ratio), count(column), or mean/min/max/first/last of a
//     series.
type Expr struct {
	op    string         // one of the op* constants
	col   string         // opCol: the selector, folded to its canonical form
	class string         // opPosition: the classKeys key
	month timeline.Month // opAt: the row selector
	args  []*Expr        // operands, as many as the grammar gives op
}

// Expression operations, spelled as the canonical text prints them.
const (
	opCol      = "col"      // column: named or family:key selector
	opSum      = "sum"      // column: element-wise sum of column args
	opPct      = "pct"      // series: 100·num/den per month (args: num, den)
	opPosition = "position" // series: Figure 5 avg relative suite position
	opAt       = "at"       // scalar: series value at month (0 when absent)
	opOver     = "over"     // scalar: 100·Σnum/Σden over the whole window
	opCount    = "count"    // scalar: Σ of a column over the whole window
	opMean     = "mean"     // scalar: arithmetic mean of a series
	opMin      = "min"      // scalar: minimum of a series
	opMax      = "max"      // scalar: maximum of a series
	opFirst    = "first"    // scalar: first monthly value
	opLast     = "last"     // scalar: last monthly value
)

// Kind classifies what an expression evaluates to.
type Kind uint8

// Expression kinds.
const (
	KindColumn Kind = iota // dense per-month integer counts
	KindSeries             // one float64 per month
	KindScalar             // a single float64
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindColumn:
		return "column"
	case KindSeries:
		return "series"
	case KindScalar:
		return "scalar"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Kind returns the expression's result kind.
func (e *Expr) Kind() Kind {
	switch e.op {
	case opCol, opSum:
		return KindColumn
	case opPct, opPosition:
		return KindSeries
	}
	return KindScalar
}

// --- column vocabulary ---

// plainIndex inverts plainNames: the canonical name of every plain frame
// column to its index in Frame.Plain. Keyed counters (versions, classes,
// ...) go through the family selectors instead.
var plainIndex = func() map[string]int {
	m := make(map[string]int, numPlain)
	for i, name := range plainNames {
		m[name] = i
	}
	return m
}()

// versionKeys maps canonical (and alias) version names to wire values. The
// canonical form is the first spelling, e.g. "tls12".
var versionKeys = map[string]registry.Version{
	"ssl2": registry.VersionSSL2, "sslv2": registry.VersionSSL2,
	"ssl3": registry.VersionSSL3, "sslv3": registry.VersionSSL3,
	"tls10": registry.VersionTLS10, "tlsv10": registry.VersionTLS10,
	"tls11": registry.VersionTLS11, "tlsv11": registry.VersionTLS11,
	"tls12": registry.VersionTLS12, "tlsv12": registry.VersionTLS12,
	"tls13": registry.VersionTLS13, "tlsv13": registry.VersionTLS13,
	"tls13-draft18": registry.VersionTLS13Draft18, "tlsv13-draft18": registry.VersionTLS13Draft18,
	"tls13-draft28": registry.VersionTLS13Draft28, "tlsv13-draft28": registry.VersionTLS13Draft28,
	"tls13-google": registry.VersionTLS13Google, "tlsv13-google": registry.VersionTLS13Google,
}

// canonicalVersion resolves a version key to its canonical spelling, the
// one without the "v" after "ssl" or "tls" ("tlsv12" → "tls12"), so both
// spellings of a column print, and cache, as one query.
func canonicalVersion(k string) (string, bool) {
	if _, ok := versionKeys[k]; !ok {
		return "", false
	}
	if k[3] == 'v' {
		return k[:3] + k[4:], true
	}
	return k, true
}

// classKeys maps canonical class names to the Frame's suite-class map keys,
// which for the five Figure 5 classes are also notary.PosClass names (shared
// by class: selectors and position(); position(stream) and position(other)
// are valid and zero).
var classKeys = map[string]string{
	"aead": "AEAD", "cbc": "CBC", "rc4": "RC4",
	"des": "DES", "3des": "3DES", "stream": "Stream", "other": "other",
}

// kexKeys maps canonical key-exchange names to registry values.
var kexKeys = map[string]registry.KeyExchange{
	"null": registry.KexNULL, "rsa": registry.KexRSA,
	"dh": registry.KexDH, "dhe": registry.KexDHE,
	"ecdh": registry.KexECDH, "ecdhe": registry.KexECDHE,
	"psk": registry.KexPSK, "dhe-psk": registry.KexDHEPSK,
	"ecdhe-psk": registry.KexECDHEPSK, "rsa-psk": registry.KexRSAPSK,
	"srp": registry.KexSRP, "krb5": registry.KexKRB5,
	"gost": registry.KexGOST, "tls13": registry.KexTLS13,
}

// agentKeys maps the query grammar's client-class slugs to the clientdb
// class names the Agent columns are keyed by (the grammar's word bytes
// exclude spaces, '&' and '.', so "OS Tools and Services" queries as
// "agent:os-tools").
var agentKeys = map[string]string{
	"libraries":     string(clientdb.ClassLibrary),
	"browsers":      string(clientdb.ClassBrowser),
	"os-tools":      string(clientdb.ClassOSTool),
	"mobile-apps":   string(clientdb.ClassMobileApp),
	"dev-tools":     string(clientdb.ClassDevTool),
	"av":            string(clientdb.ClassAV),
	"cloud-storage": string(clientdb.ClassCloudStorage),
	"email":         string(clientdb.ClassEmail),
	"malware":       string(clientdb.ClassMalware),
}

// isFPID reports whether s has the shape of an FPID column key: exactly 12
// lowercase hex digits. Any well-formed ID parses — an ID outside the
// frame's top-K set simply reads as the zero column, like any never-observed
// family key.
func isFPID(s string) bool {
	if len(s) != 12 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// extKeys and curveKeys are derived from the registry name tables (IANA
// names are already lowercase). They are var-initialized, not filled in an
// init func, because the catalog's own initializer parses expressions
// against them.
var (
	extKeys = func() map[string]registry.ExtensionID {
		m := make(map[string]registry.ExtensionID)
		for _, e := range registry.AllExtensions() {
			m[e.String()] = e
		}
		return m
	}()
	curveKeys = func() map[string]registry.CurveID {
		m := make(map[string]registry.CurveID)
		for _, c := range registry.AllCurves() {
			// IANA curve names are folded ("brainpoolP256r1" queries as
			// "curve:brainpoolp256r1") so selectors stay case-insensitive.
			m[fold(c.String())] = c
		}
		return m
	}()
)

// columnFamilies routes a "family:key" selector to the frame map it reads.
// The wildcard key "*" sums every observed column of the family.
var columnFamilies = map[string]struct {
	resolve func(key string) (string, bool)  // a folded key's canonical form, and its validity
	column  func(f *Frame, key string) []int // nil when never observed
	all     func(f *Frame) map[string][]int  // nil: family has no wildcard
}{
	"version": {
		resolve: canonicalVersion,
		column:  func(f *Frame, k string) []int { return f.Version[versionKeys[k]] },
		all:     func(f *Frame) map[string][]int { return intCols(f.Version) },
	},
	"class": {
		resolve: func(k string) (string, bool) { _, ok := classKeys[k]; return k, ok },
		column:  func(f *Frame, k string) []int { return f.Class[classKeys[k]] },
		all:     func(f *Frame) map[string][]int { return intCols(f.Class) },
	},
	"kex": {
		resolve: func(k string) (string, bool) { _, ok := kexKeys[k]; return k, ok },
		column:  func(f *Frame, k string) []int { return f.Kex[kexKeys[k]] },
		all:     func(f *Frame) map[string][]int { return intCols(f.Kex) },
	},
	"ext": {
		resolve: func(k string) (string, bool) { _, ok := extKeys[k]; return k, ok },
		column:  func(f *Frame, k string) []int { return f.Extension[extKeys[k]] },
		all:     func(f *Frame) map[string][]int { return intCols(f.Extension) },
	},
	"curve": {
		resolve: func(k string) (string, bool) { _, ok := curveKeys[k]; return k, ok },
		column:  func(f *Frame, k string) []int { return f.Curve[curveKeys[k]] },
		all:     func(f *Frame) map[string][]int { return intCols(f.Curve) },
	},
	"tls13": {
		resolve: canonicalVersion,
		column:  func(f *Frame, k string) []int { return f.TLS13Variant[versionKeys[k]] },
		all:     func(f *Frame) map[string][]int { return intCols(f.TLS13Variant) },
	},
	"fp": {
		resolve: func(k string) (string, bool) { return k, k == FPOtherKey || isFPID(k) },
		column:  func(f *Frame, k string) []int { return f.FPCol[k] },
		all:     func(f *Frame) map[string][]int { return f.FPCol },
	},
	"agent": {
		resolve: func(k string) (string, bool) { _, ok := agentKeys[k]; return k, ok },
		column:  func(f *Frame, k string) []int { return f.Agent[agentKeys[k]] },
		all:     func(f *Frame) map[string][]int { return f.Agent },
	},
}

// intCols erases a keyed column map's key type for the wildcard walk.
func intCols[K comparable](m map[K][]int) map[string][]int {
	out := make(map[string][]int, len(m))
	for k, c := range m {
		out[fmt.Sprint(k)] = c
	}
	return out
}

// ColumnNames lists every plain named column, sorted — the discoverable half
// of the column vocabulary (family selectors are open-ended).
func ColumnNames() []string {
	return slices.Sorted(slices.Values(plainNames[:]))
}

// --- checks the parser makes ---

// fold lowercases ASCII in place-ish; returns s unchanged (and unallocated)
// when it is already lowercase.
func fold(s string) string {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= 'A' && c <= 'Z' {
			return strings.ToLower(s)
		}
	}
	return s
}

// checkColumn checks a column selector, returning its canonical (folded)
// form.
func checkColumn(name string) (string, error) {
	name = fold(name)
	if _, ok := plainIndex[name]; ok {
		return name, nil
	}
	if i := strings.IndexByte(name, ':'); i >= 0 {
		fam, key := name[:i], name[i+1:]
		def, ok := columnFamilies[fam]
		if !ok {
			return "", fmt.Errorf("unknown column family %q (have version, class, kex, ext, curve, tls13, fp, agent)", fam)
		}
		if key == "*" {
			return name, nil
		}
		canon, ok := def.resolve(key)
		if !ok {
			return "", fmt.Errorf("unknown %s key %q", fam, key)
		}
		if canon == key {
			return name, nil
		}
		return fam + ":" + canon, nil
	}
	return "", fmt.Errorf("unknown column %q (see analysis.ColumnNames; family selectors are family:key)", name)
}

// parseMonth parses the grammar's "YYYY-MM" month literal.
func parseMonth(s string) (timeline.Month, error) {
	if len(s) != 7 || s[4] != '-' {
		return timeline.Month{}, fmt.Errorf("bad month %q (want YYYY-MM)", s)
	}
	y, err1 := strconv.Atoi(s[:4])
	m, err2 := strconv.Atoi(s[5:])
	if err1 != nil || err2 != nil || m < 1 || m > 12 {
		return timeline.Month{}, fmt.Errorf("bad month %q (want YYYY-MM)", s)
	}
	return timeline.M(y, time.Month(m)), nil
}

// QueryResult is the answer to one expression query: a monthly series or a
// single scalar, tagged with the canonical form of the query it answers.
type QueryResult struct {
	// Query is the canonical text form of the evaluated expression.
	Query string
	// Kind is "series" or "scalar".
	Kind string
	// Series holds the monthly values when Kind == "series".
	Series Series
	// Value holds the result when Kind == "scalar".
	Value float64
}
