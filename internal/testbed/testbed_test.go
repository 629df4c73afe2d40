package testbed

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gdmp/internal/core"
)

func TestGridLifecycle(t *testing.T) {
	g, err := NewGrid(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if g.CatalogAddr == "" {
		t.Fatal("catalog address empty")
	}
	s1, err := g.AddSite("one.org", SiteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddSite("one.org", SiteOptions{}); err == nil {
		t.Fatal("duplicate site accepted")
	}
	if g.Site("one.org") != s1 {
		t.Fatal("Site lookup broken")
	}
	if g.Site("missing") != nil {
		t.Fatal("missing site should be nil")
	}
	// Sites with MSS and federation come up too.
	s2, err := g.AddSite("two.org", SiteOptions{
		WithMSS: true, MSSCapacity: 1 << 20,
		WithFederation: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Federation() == nil {
		t.Fatal("federation missing")
	}
	// Cross-site liveness.
	name, err := s1.Ping(s2.Addr())
	if err != nil || name != "two.org" {
		t.Fatalf("Ping = %q, %v", name, err)
	}
}

func TestWriteSiteFile(t *testing.T) {
	g, err := NewGrid(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	s, err := g.AddSite("one.org", SiteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	data := MakeData(1000, 5)
	full, err := g.WriteSiteFile("one.org", "deep/dir/x.db", data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(full)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("file content wrong: %v", err)
	}
	if filepath.Dir(full) != filepath.Join(s.DataDir(), "deep", "dir") {
		t.Fatalf("file placed at %s", full)
	}
	if _, err := g.WriteSiteFile("nope.org", "x", nil); err == nil {
		t.Fatal("unknown site accepted")
	}
}

func TestMakeDataDeterministic(t *testing.T) {
	a := MakeData(4096, 7)
	b := MakeData(4096, 7)
	c := MakeData(4096, 8)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different data")
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical data")
	}
}

func TestSiteOptionsApplied(t *testing.T) {
	g, err := NewGrid(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	s, err := g.AddSite("tape.org", SiteOptions{
		WithMSS:      true,
		MSSCapacity:  2 << 20,
		MountLatency: time.Millisecond,
		TapeRateMBps: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Publishing through the MSS-backed pool works end to end.
	if _, err := g.WriteSiteFile("tape.org", "f.db", MakeData(1024, 9)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Publish("f.db", core.PublishOptions{}); err != nil {
		t.Fatal(err)
	}
}
