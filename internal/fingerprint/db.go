package fingerprint

import (
	"maps"
	"math/rand"

	"tlsage/internal/clientdb"
	"tlsage/internal/registry"
)

// Entry labels one fingerprint with the software it identifies.
type Entry struct {
	Software string
	Class    clientdb.Class
	Versions []string
}

// DB is the fingerprint database with the paper's collision semantics:
//
//   - The same software colliding with itself merges version ranges.
//   - A collision between specific software and a library attributes the
//     fingerprint to the library ("we assume that the software uses the
//     library"; this is why Chrome on Android is identified as Android SDK).
//   - A collision between two different non-library programs removes the
//     fingerprint — it cannot uniquely identify a client.
type DB struct {
	entries map[Fingerprint]Entry
	removed map[Fingerprint]bool
	// classes counts the entries by class, kept as Add changes them; a class
	// with none has no key.
	classes map[clientdb.Class]int
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{
		entries: make(map[Fingerprint]Entry),
		removed: make(map[Fingerprint]bool),
		classes: make(map[clientdb.Class]int),
	}
}

// Add registers fp for the given software, applying collision rules.
func (db *DB) Add(fp Fingerprint, software string, class clientdb.Class, version string) {
	if db.removed[fp] {
		return
	}
	cur, exists := db.entries[fp]
	if !exists {
		db.entries[fp] = Entry{Software: software, Class: class, Versions: []string{version}}
		db.classes[class]++
		return
	}
	if cur.Software == software {
		cur.Versions = append(cur.Versions, version)
		db.entries[fp] = cur
		return
	}
	curIsLib := cur.Class == clientdb.ClassLibrary
	newIsLib := class == clientdb.ClassLibrary
	switch {
	case curIsLib && !newIsLib:
		// Library wins; keep the current entry.
	case newIsLib && !curIsLib:
		db.entries[fp] = Entry{Software: software, Class: class, Versions: []string{version}}
		db.uncount(cur.Class)
		db.classes[class]++
	default:
		// Two distinct programs (or two distinct libraries): ambiguous.
		delete(db.entries, fp)
		db.removed[fp] = true
		db.uncount(cur.Class)
	}
}

// uncount takes one entry of class c off the class counts.
func (db *DB) uncount(c clientdb.Class) {
	if db.classes[c]--; db.classes[c] == 0 {
		delete(db.classes, c)
	}
}

// Lookup returns the entry for fp.
func (db *DB) Lookup(fp Fingerprint) (Entry, bool) {
	e, ok := db.entries[fp]
	return e, ok
}

// ClassOf attributes a fingerprint string to its client-class name. It is
// notary.Classifier: a DB installed on an aggregate fills ByClientClass as
// records stream in.
func (db *DB) ClassOf(fp string) (string, bool) {
	e, ok := db.entries[Fingerprint(fp)]
	if !ok {
		return "", false
	}
	return string(e.Class), true
}

// Size reports the number of usable fingerprints.
func (db *DB) Size() int { return len(db.entries) }

// RemovedCount reports fingerprints dropped due to collisions.
func (db *DB) RemovedCount() int { return len(db.removed) }

// CountByClass returns the number of fingerprints per class (Table 2's
// "№ FPs" column).
func (db *DB) CountByClass() map[clientdb.Class]int {
	return maps.Clone(db.classes)
}

// table2Targets is the per-class fingerprint count from Table 2. (The
// table's rows sum to 1,562 although its "All" row prints 1,684 — the
// original's arithmetic, reproduced as printed rows.)
var table2Targets = map[clientdb.Class]int{
	clientdb.ClassLibrary:      700,
	clientdb.ClassBrowser:      193,
	clientdb.ClassOSTool:       13,
	clientdb.ClassMobileApp:    489,
	clientdb.ClassDevTool:      12,
	clientdb.ClassAV:           44,
	clientdb.ClassCloudStorage: 29,
	clientdb.ClassEmail:        33,
	clientdb.ClassMalware:      49,
}

// BuildDefault constructs the study fingerprint database: one fingerprint
// per labeled profile release, then deterministic minor-build variants per
// class until the Table 2 per-class counts are met. Variants model the point
// releases, platform builds and configuration tweaks that give real products
// many fingerprints each (BrowserStack sweeps, multiple compiled OpenSSL
// versions, §4). A variant costs one fingerprint and one Add, whatever the
// database holds already: the loop reads its class's kept count. Every
// core.Study constructor builds one, so every `tlstrend serve` start pays
// for it (≈ 3 ms), whether or not it recovers.
func BuildDefault() *DB {
	db := NewDB()
	rnd := rand.New(rand.NewSource(4242)) // fixed seed: the DB is a dataset

	byClass := make(map[clientdb.Class][]*clientdb.Profile)
	for _, p := range clientdb.LabeledProfiles() {
		byClass[p.Class] = append(byClass[p.Class], p)
		for _, rel := range p.Releases {
			fp := fromConfig(&rel.Config)
			db.Add(fp, p.Name, p.Class, rel.Version)
		}
	}

	for _, class := range clientdb.AllClasses() {
		target := table2Targets[class]
		profiles := byClass[class] // not empty for a class with a target (TestBuildDefaultMatchesTable2Counts)
		guard := 0
		for db.classes[class] < target && guard < target*20 {
			guard++
			p := profiles[rnd.Intn(len(profiles))]
			rel := p.Releases[rnd.Intn(len(p.Releases))]
			cfg := variantConfig(&rel.Config, rnd)
			db.Add(fromConfig(cfg), p.Name, p.Class, rel.Version+"-var")
		}
	}
	return db
}

// fromConfig fingerprints a client configuration's primary hello shape.
func fromConfig(c *clientdb.Config) Fingerprint {
	return FromParts(c.Suites, c.Extensions, c.Curves, c.PointFormats)
}

// benignExtras are extensions a platform build can plausibly toggle without
// changing the software's identity class.
var benignExtras = []registry.ExtensionID{
	registry.ExtPadding, registry.ExtTokenBinding, registry.ExtCachedInfo,
	registry.ExtUserMapping, registry.ExtTruncatedHMAC, registry.ExtMaxFragmentLength,
	registry.ExtStatusRequestV2, registry.ExtUseSRTP, registry.ExtChannelID,
	registry.ExtNextProtoNego, registry.ExtEncryptThenMAC, registry.ExtExtendedMasterSecret,
}

// variantConfig derives a deterministic minor variant of a configuration:
// the kind of difference a point release or platform build produces. One to
// three mutations are stacked, each parameterized by position, so the
// variant space per base config is in the thousands.
func variantConfig(base *clientdb.Config, rnd *rand.Rand) *clientdb.Config {
	c := *base
	c.Suites = append([]uint16(nil), base.Suites...)
	c.Extensions = append([]registry.ExtensionID(nil), base.Extensions...)
	c.Curves = append([]registry.CurveID(nil), base.Curves...)

	muts := 1 + rnd.Intn(3)
	for i := 0; i < muts; i++ {
		switch rnd.Intn(6) {
		case 0: // swap two adjacent non-leading suites
			if len(c.Suites) >= 3 {
				i := 1 + rnd.Intn(len(c.Suites)-2)
				c.Suites[i], c.Suites[i+1] = c.Suites[i+1], c.Suites[i]
			} else {
				c.Suites = append(c.Suites, 0x00FF)
			}
		case 1: // toggle the renegotiation SCSV at the tail
			if n := len(c.Suites); n > 0 && c.Suites[n-1] == 0x00FF {
				c.Suites = c.Suites[:n-1]
			} else {
				c.Suites = append(c.Suites, 0x00FF)
			}
		case 2: // drop a non-leading suite (stripped-down platform build)
			if len(c.Suites) >= 3 {
				i := 1 + rnd.Intn(len(c.Suites)-1)
				c.Suites = append(c.Suites[:i], c.Suites[i+1:]...)
			}
		case 3: // drop an extension
			if len(c.Extensions) > 1 {
				i := rnd.Intn(len(c.Extensions))
				c.Extensions = append(c.Extensions[:i], c.Extensions[i+1:]...)
			} else {
				c.Extensions = append(c.Extensions, benignExtras[rnd.Intn(len(benignExtras))])
			}
		case 4: // add a benign extension at a position
			e := benignExtras[rnd.Intn(len(benignExtras))]
			i := rnd.Intn(len(c.Extensions) + 1)
			c.Extensions = append(c.Extensions[:i],
				append([]registry.ExtensionID{e}, c.Extensions[i:]...)...)
		default: // extend or trim the curve list
			if len(c.Curves) > 1 && rnd.Intn(2) == 0 {
				c.Curves = c.Curves[:len(c.Curves)-1]
			} else {
				extra := []registry.CurveID{
					registry.CurveSecp224r1, registry.CurveSecp521r1,
					registry.CurveSect283k1, registry.CurveBrainpoolP256r1,
					registry.CurveSect571r1,
				}
				c.Curves = append(c.Curves, extra[rnd.Intn(len(extra))])
			}
		}
	}
	return &c
}
