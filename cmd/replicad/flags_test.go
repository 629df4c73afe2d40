package main

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestFlagsMatchREADME holds README's "`replicad` flags" table and
// registerFlags to each other: every flag has a row, every row a flag.
func TestFlagsMatchREADME(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "#### `replicad` flags\n")
	if !ok {
		t.Fatal("README has no `replicad` flags section")
	}
	section, _, _ = strings.Cut(section, "\n#")
	documented := make(map[string]bool)
	for _, m := range regexp.MustCompile("(?m)^\\| `-([a-z-]+)` \\|").FindAllStringSubmatch(section, -1) {
		documented[m[1]] = true
	}

	fs := flag.NewFlagSet("replicad", flag.ContinueOnError)
	registerFlags(fs, new(settings))
	fs.VisitAll(func(f *flag.Flag) {
		if !documented[f.Name] {
			t.Errorf("flag -%s is missing from README's `replicad` flags table", f.Name)
		}
		delete(documented, f.Name)
	})
	for name := range documented {
		t.Errorf("README documents -%s, which replicad no longer has", name)
	}
}
