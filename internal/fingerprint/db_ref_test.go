package fingerprint

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"tlsage/internal/clientdb"
)

// refCountByClass is the body CountByClass had: a walk over every entry.
func refCountByClass(db *DB) map[clientdb.Class]int {
	out := make(map[clientdb.Class]int)
	for _, e := range db.entries {
		out[e.Class]++
	}
	return out
}

// refBuildDefault is the body BuildDefault had, whose fill loop recounted
// every entry before each variant: quadratic in the database's size.
func refBuildDefault() *DB {
	db := NewDB()
	rnd := rand.New(rand.NewSource(4242))
	byClass := make(map[clientdb.Class][]*clientdb.Profile)
	for _, p := range clientdb.LabeledProfiles() {
		byClass[p.Class] = append(byClass[p.Class], p)
		for _, rel := range p.Releases {
			db.Add(fromConfig(&rel.Config), p.Name, p.Class, rel.Version)
		}
	}
	for _, class := range clientdb.AllClasses() {
		target := table2Targets[class]
		profiles := byClass[class]
		if len(profiles) == 0 {
			continue
		}
		guard := 0
		for refCountByClass(db)[class] < target && guard < target*20 {
			guard++
			p := profiles[rnd.Intn(len(profiles))]
			rel := p.Releases[rnd.Intn(len(p.Releases))]
			cfg := variantConfig(&rel.Config, rnd)
			db.Add(fromConfig(cfg), p.Name, p.Class, rel.Version+"-var")
		}
	}
	return db
}

// BuildDefault builds the database the recounting loop built: the same
// entries, the same tombstones, and class counts equal to a recount.
func TestBuildDefaultMatchesReference(t *testing.T) {
	got, want := BuildDefault(), refBuildDefault()
	if !reflect.DeepEqual(got.entries, want.entries) {
		t.Errorf("entries differ from the reference's: %d vs %d", len(got.entries), len(want.entries))
	}
	if !reflect.DeepEqual(got.removed, want.removed) {
		t.Errorf("tombstones differ from the reference's: %d vs %d", len(got.removed), len(want.removed))
	}
	if c, w := got.CountByClass(), refCountByClass(want); !reflect.DeepEqual(c, w) {
		t.Errorf("CountByClass = %v, the reference counts %v", c, w)
	}
}

// Through any sequence of Adds — new fingerprints, a program's versions
// merging, a library taking a program's fingerprint, two programs or two
// libraries removing one — the kept class counts equal a recount, with no
// key for a class that has no entry.
func TestClassCountsFollowEveryAdd(t *testing.T) {
	adders := []struct {
		software string
		class    clientdb.Class
	}{
		{"Chrome", clientdb.ClassBrowser},
		{"Firefox", clientdb.ClassBrowser},
		{"Android SDK", clientdb.ClassLibrary},
		{"OpenSSL", clientdb.ClassLibrary},
		{"Zbot", clientdb.ClassMalware},
		{"Outlook", clientdb.ClassEmail},
	}
	for seed := int64(1); seed <= 20; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		db := NewDB()
		for i := 0; i < 400; i++ {
			fp := Fingerprint(fmt.Sprintf("cs:%04x|ext:|grp:|pf:", rnd.Intn(40)))
			a := adders[rnd.Intn(len(adders))]
			db.Add(fp, a.software, a.class, "1")
			if got, want := db.CountByClass(), refCountByClass(db); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, add %d: CountByClass = %v, a recount gives %v", seed, i, got, want)
			}
		}
	}
}

func BenchmarkBuildDefault(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BuildDefault()
	}
}
