package gridftp

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRangeSetBasics(t *testing.T) {
	var rs RangeSet
	if !rs.Complete(0) {
		t.Error("empty set should be complete for total=0")
	}
	if rs.Complete(1) {
		t.Error("empty set should not be complete for total=1")
	}
	rs.Add(0, 10)
	if rs.Covered() != 10 {
		t.Fatalf("Covered = %d", rs.Covered())
	}
	rs.Add(20, 30)
	if got := rs.String(); got != "0-10,20-30" {
		t.Fatalf("String = %q", got)
	}
	missing := rs.Missing(40)
	if len(missing) != 2 || missing[0] != (Range{10, 20}) || missing[1] != (Range{30, 40}) {
		t.Fatalf("Missing = %v", missing)
	}
	rs.Add(10, 20)
	rs.Add(30, 40)
	if !rs.Complete(40) {
		t.Fatalf("set should be complete: %s", rs.String())
	}
	if len(rs.Missing(40)) != 0 {
		t.Fatalf("Missing on complete set = %v", rs.Missing(40))
	}
}

func TestRangeSetMerging(t *testing.T) {
	var rs RangeSet
	rs.Add(10, 20)
	rs.Add(15, 25) // overlap
	if got := rs.String(); got != "10-25" {
		t.Fatalf("overlap merge = %q", got)
	}
	rs.Add(25, 30) // adjacent
	if got := rs.String(); got != "10-30" {
		t.Fatalf("adjacent merge = %q", got)
	}
	rs.Add(0, 5)
	rs.Add(40, 50)
	rs.Add(3, 45) // spans everything
	if got := rs.String(); got != "0-50" {
		t.Fatalf("spanning merge = %q", got)
	}
}

func TestRangeSetIgnoresDegenerate(t *testing.T) {
	var rs RangeSet
	rs.Add(5, 5)
	rs.Add(10, 3)
	rs.Add(-4, 2) // negative start
	if rs.Covered() != 0 {
		t.Fatalf("degenerate ranges accepted: %s", rs.String())
	}
}

// TestRangeSetPropertyCoverage: adding random ranges always yields a set
// whose covered bytes plus missing bytes equals the total, with disjoint
// sorted ranges.
func TestRangeSetPropertyCoverage(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		const total = 1000
		var rs RangeSet
		for i := 0; i < int(n%20)+1; i++ {
			a := rng.Int63n(total)
			b := a + rng.Int63n(total-a) + 1
			rs.Add(a, b)
		}
		// Invariant: ranges sorted, disjoint, non-adjacent.
		prev := Range{-1, -1}
		for _, r := range rs.Ranges() {
			if r.Start >= r.End {
				return false
			}
			if prev.End >= r.Start && prev.End != -1 {
				return false
			}
			prev = r
		}
		// Covered + missing = total within [0, total).
		var missing int64
		for _, m := range rs.Missing(total) {
			missing += m.Len()
		}
		covered := int64(0)
		for _, r := range rs.Ranges() {
			lo, hi := r.Start, r.End
			if hi > total {
				hi = total
			}
			if lo < total {
				covered += hi - lo
			}
		}
		return covered+missing == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRangeSetPropertyCompleteness: covering [0,total) in random chunk
// order always completes.
func TestRangeSetPropertyCompleteness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const total = 512
		chunks := make([]Range, 0)
		for pos := int64(0); pos < total; {
			n := rng.Int63n(64) + 1
			if pos+n > total {
				n = total - pos
			}
			chunks = append(chunks, Range{pos, pos + n})
			pos += n
		}
		rng.Shuffle(len(chunks), func(i, j int) { chunks[i], chunks[j] = chunks[j], chunks[i] })
		var rs RangeSet
		for _, ch := range chunks {
			rs.Add(ch.Start, ch.End)
		}
		return rs.Complete(total) && rs.Covered() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
