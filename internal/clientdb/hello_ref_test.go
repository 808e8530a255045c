package clientdb

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"tlsage/internal/registry"
	"tlsage/internal/wire"
)

// refBuildHello is the body BuildHello had before it was split into Draw and
// Assemble: each draw made where the hello needs it.
func refBuildHello(c *Config, rnd *rand.Rand, fallback bool) *wire.ClientHello {
	grease := func(slot int) uint16 {
		vals := registry.GREASEValues()
		return vals[(rnd.Intn(len(vals))+slot)%len(vals)]
	}
	suites := make([]uint16, 0, len(c.Suites)+2)
	if c.GREASE {
		suites = append(suites, grease(0))
	}
	suites = append(suites, c.Suites...)
	if c.RC4FallbackOnly && fallback {
		suites = append(suites, rc4FallbackSuites...)
	}
	if fallback && c.SendsFallbackSCSV {
		suites = append(suites, 0x5600)
	}
	ch := &wire.ClientHello{
		Version:            c.LegacyVersion,
		CipherSuites:       suites,
		CompressionMethods: []byte{0},
	}
	rnd.Read(ch.Random[:])
	for _, id := range c.Extensions {
		switch id {
		case registry.ExtSupportedGroups:
			curves := c.Curves
			if c.GREASE {
				curves = append([]registry.CurveID{registry.CurveID(grease(1))}, curves...)
			}
			ch.Extensions = append(ch.Extensions, wire.NewSupportedGroupsExtension(curves))
		case registry.ExtECPointFormats:
			ch.Extensions = append(ch.Extensions, wire.NewECPointFormatsExtension(c.PointFormats))
		case registry.ExtSupportedVersions:
			if len(c.SupportedVersions) > 0 {
				vs := c.SupportedVersions
				if c.GREASE {
					vs = append([]registry.Version{registry.Version(grease(2))}, vs...)
				}
				ch.Extensions = append(ch.Extensions, wire.NewSupportedVersionsExtension(vs))
			}
		case registry.ExtHeartbeat:
			if c.HeartbeatMode != 0 {
				ch.Extensions = append(ch.Extensions, wire.NewHeartbeatExtension(c.HeartbeatMode))
			}
		default:
			ch.Extensions = append(ch.Extensions, wire.Extension{ID: id})
		}
	}
	if c.GREASE {
		ch.Extensions = append(ch.Extensions, wire.Extension{ID: registry.ExtensionID(grease(3))})
	}
	return ch
}

// sameState reports whether a and b are in one state: the same next Int63,
// and the same next bytes from Read, which keeps a partial word of its own.
func sameState(a, b *rand.Rand) bool {
	var x, y [5]byte
	a.Read(x[:])
	b.Read(y[:])
	return x == y && a.Int63() == b.Int63()
}

// For every release of every profile, first attempt and fallback retry (the
// retry as the simulator sends it too: a lower legacy version and no
// supported_versions), and 50 seeds each: Draw then Assemble gives the
// reference body's hello, Random included, and leaves rnd where the reference
// leaves it; BuildHello gives that hello too.
func TestDrawAssembleMatchesReference(t *testing.T) {
	hellos := 0
	for _, p := range AllProfiles() {
		for _, rel := range p.Releases {
			retry := rel.Config
			retry.LegacyVersion, retry.SupportedVersions = registry.VersionTLS10, nil
			for _, form := range []struct {
				name     string
				cfg      Config
				fallback bool
			}{{"first", rel.Config, false}, {"fallback", rel.Config, true}, {"retry", retry, true}} {
				for seed := int64(1); seed <= 50; seed++ {
					where := fmt.Sprintf("%s %s %s seed %d", p.Name, rel.Version, form.name, seed)
					rng := func() *rand.Rand { return rand.New(rand.NewSource(seed)) }
					ref, split, built := rng(), rng(), rng()
					want := refBuildHello(&form.cfg, ref, form.fallback)
					var d Draws
					form.cfg.Draw(split, &d)
					if got := form.cfg.Assemble(&d, form.fallback); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: Draw+Assemble = %+v, reference %+v", where, got, want)
					}
					if got := form.cfg.BuildHello(built, form.fallback); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: BuildHello = %+v, reference %+v", where, got, want)
					}
					again := rng()
					refBuildHello(&form.cfg, again, form.fallback)
					if !sameState(split, ref) || !sameState(built, again) {
						t.Fatalf("%s: the split leaves rnd elsewhere than the reference", where)
					}
					hellos++
				}
			}
		}
	}
	if hellos < 1000 {
		t.Fatalf("only %d hellos compared", hellos)
	}
}

// The simulator draws on every connection: Draw allocates nothing, for a
// GREASE config and for one without.
func TestDrawAllocs(t *testing.T) {
	rnd := rand.New(rand.NewSource(6))
	for _, name := range []string{"Chrome", "Firefox"} {
		p, _ := ProfileByName(name)
		cfg := &p.Releases[len(p.Releases)-1].Config
		var d Draws
		if n := testing.AllocsPerRun(1000, func() { cfg.Draw(rnd, &d) }); n != 0 {
			t.Errorf("%s: Draw allocates %v times", name, n)
		}
	}
}
