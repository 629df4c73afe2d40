package replica

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func lf(name string, attrs map[string]string) *LogicalFile {
	return &LogicalFile{Name: name, Attrs: attrs}
}

func matchFilter(t *testing.T, expr string, f *LogicalFile) bool {
	t.Helper()
	flt, err := ParseFilter(expr)
	if err != nil {
		t.Fatalf("ParseFilter(%q): %v", expr, err)
	}
	return flt.Match(f)
}

func TestFilterEquality(t *testing.T) {
	f := lf("run1", map[string]string{"owner": "alice", "size": "100"})
	if !matchFilter(t, "(owner=alice)", f) {
		t.Error("exact match failed")
	}
	if matchFilter(t, "(owner=bob)", f) {
		t.Error("wrong value matched")
	}
	if matchFilter(t, "(missing=alice)", f) {
		t.Error("missing attribute matched")
	}
}

func TestFilterNameAttribute(t *testing.T) {
	f := lf("lfn://cern.ch/run42.db", nil)
	if !matchFilter(t, "(name=lfn://cern.ch/run42.db)", f) {
		t.Error("name equality failed")
	}
	if !matchFilter(t, "(name=lfn://cern.ch/*)", f) {
		t.Error("name prefix wildcard failed")
	}
	if matchFilter(t, "(name=lfn://anl.gov/*)", f) {
		t.Error("wrong prefix matched")
	}
}

func TestFilterWildcards(t *testing.T) {
	f := lf("x", map[string]string{"type": "objectivity-database"})
	cases := []struct {
		expr string
		want bool
	}{
		{"(type=objectivity-*)", true},
		{"(type=*-database)", true},
		{"(type=*tivity*)", true},
		{"(type=obj*base)", true},
		{"(type=obj*xyz*base)", false},
		{"(type=*)", true}, // presence
		{"(other=*)", false},
		{"(type=objectivity-database)", true},
		{"(type=*objectivity-database*)", true},
	}
	for _, tc := range cases {
		if got := matchFilter(t, tc.expr, f); got != tc.want {
			t.Errorf("%s = %v, want %v", tc.expr, got, tc.want)
		}
	}
}

func TestFilterNumericComparison(t *testing.T) {
	f := lf("x", map[string]string{"size": "1500"})
	cases := []struct {
		expr string
		want bool
	}{
		{"(size>=1000)", true},
		{"(size>=1500)", true},
		{"(size>=1501)", false},
		{"(size<=1500)", true},
		{"(size<=200)", false},
		// Numeric, not lexicographic: "1500" >= "200" numerically.
		{"(size>=200)", true},
	}
	for _, tc := range cases {
		if got := matchFilter(t, tc.expr, f); got != tc.want {
			t.Errorf("%s = %v, want %v", tc.expr, got, tc.want)
		}
	}
}

func TestFilterLexicographicFallback(t *testing.T) {
	f := lf("x", map[string]string{"owner": "carol"})
	if !matchFilter(t, "(owner>=alice)", f) {
		t.Error("carol >= alice should hold lexicographically")
	}
	if matchFilter(t, "(owner>=dave)", f) {
		t.Error("carol >= dave should not hold")
	}
}

func TestFilterBoolean(t *testing.T) {
	f := lf("x", map[string]string{"owner": "alice", "size": "100", "site": "cern"})
	cases := []struct {
		expr string
		want bool
	}{
		{"(&(owner=alice)(size>=50))", true},
		{"(&(owner=alice)(size>=500))", false},
		{"(|(owner=bob)(site=cern))", true},
		{"(|(owner=bob)(site=anl))", false},
		{"(!(owner=bob))", true},
		{"(!(owner=alice))", false},
		{"(&(|(owner=alice)(owner=bob))(!(site=anl)))", true},
		{"(&(owner=alice)(size>=50)(site=cern))", true},
	}
	for _, tc := range cases {
		if got := matchFilter(t, tc.expr, f); got != tc.want {
			t.Errorf("%s = %v, want %v", tc.expr, got, tc.want)
		}
	}
}

func TestFilterParseErrors(t *testing.T) {
	bad := []string{
		"",
		"owner=alice",     // no parens
		"(owner=alice",    // unclosed
		"(owner alice)",   // no operator
		"(&)",             // empty composite
		"(|)",             // empty composite
		"(!)",             // missing operand
		"(owner=alice))",  // trailing
		"((owner=alice))", // bare nesting
		"(=value)",        // missing attribute
		negations(maxFilterDepth),
	}
	for _, expr := range bad {
		if _, err := ParseFilter(expr); !errors.Is(err, ErrBadFilter) {
			t.Errorf("ParseFilter(%q) = %v, want ErrBadFilter", expr, err)
		}
	}
}

func TestFilterStringRoundTrip(t *testing.T) {
	exprs := []string{
		"(owner=alice)",
		"(size>=100)",
		"(size<=100)",
		"(type=*)",
		"(&(a=1)(b=2))",
		"(|(a=1)(b=2)(c=3))",
		"(!(a=1))",
		"(&(|(a=1)(b=2))(!(c=3)))",
		negations(maxFilterDepth - 1),
		"(\n&=b)", // an attribute that reads as "&" once a newline is trimmed
	}
	for _, expr := range exprs {
		f1, err := ParseFilter(expr)
		if err != nil {
			t.Fatalf("ParseFilter(%q): %v", expr, err)
		}
		f2, err := ParseFilter(f1.String())
		if err != nil {
			t.Fatalf("reparse(%q): %v", f1.String(), err)
		}
		if f1.String() != f2.String() {
			t.Errorf("String round trip: %q -> %q", f1.String(), f2.String())
		}
	}
}

// negations is (a=1) under n "!"s: a filter nested n+1 deep.
func negations(n int) string {
	return strings.Repeat("(!", n) + "(a=1)" + strings.Repeat(")", n)
}

// FuzzParseFilter: the parser of the query a catalog client sends is total
// on hostile text. It never panics, its memory grows with the text alone,
// and a filter it accepts renders to text that parses back to the same
// filter.
func FuzzParseFilter(f *testing.F) {
	for _, s := range []string{
		"(owner=alice)", "(size>=100)", "(size<=100)", "(type=*)", "(type=obj*xyz*base)",
		"( & (a=1) (a=1) )", "(&(|(a=1)(b=2))(!(c=3)))", "((a=1))", "(&)", "(a=1))",
		negations(maxFilterDepth),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		flt, err := ParseFilter(s)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10+64*uint64(len(s)) {
			t.Fatalf("parsing %d bytes allocated %d", len(s), got)
		}
		if err != nil {
			if !errors.Is(err, ErrBadFilter) {
				t.Fatalf("ParseFilter(%q) = %v, want ErrBadFilter", s, err)
			}
			return
		}
		again, err := ParseFilter(flt.String())
		if err != nil || again.String() != flt.String() {
			t.Fatalf("ParseFilter(%q) renders %q, which parses to %v, %v", s, flt.String(), again, err)
		}
	})
}

func TestFilterWhitespaceTolerated(t *testing.T) {
	f := lf("x", map[string]string{"a": "1"})
	if !matchFilter(t, "( & (a=1) (a=1) )", f) {
		t.Error("whitespace between tokens should be accepted")
	}
}

func TestWildcardMatchProperty(t *testing.T) {
	// A pattern equal to the value, or "*", always matches.
	f := func(s string) bool {
		return wildcardMatch(s, s) && wildcardMatch("*", s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCatalogQuery(t *testing.T) {
	c := New(Options{})
	c.Register("lfn://cern.ch/big.db", map[string]string{AttrSize: "1000000", AttrFileType: "objectivity"})
	c.Register("lfn://cern.ch/small.db", map[string]string{AttrSize: "10", AttrFileType: "objectivity"})
	c.Register("lfn://cern.ch/notes.txt", map[string]string{AttrSize: "10", AttrFileType: "flat"})

	got, err := c.Query("(&(filetype=objectivity)(size>=100))")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Name != "lfn://cern.ch/big.db" {
		t.Fatalf("Query = %v", got)
	}

	got, err = c.Query("(name=lfn://cern.ch/*)")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("wildcard query returned %d entries", len(got))
	}
	if _, err := c.Query("not a filter"); err == nil {
		t.Fatal("bad filter accepted")
	}
}
