package gridftp

import (
	"fmt"
	"sort"
	"strings"
)

// Range is a half-open byte interval [Start, End).
type Range struct {
	Start, End int64
}

// Len returns the number of bytes covered.
func (r Range) Len() int64 { return r.End - r.Start }

// split cuts r into n contiguous ranges of equal length, the last also
// taking the remainder: one sub-range per parallel stream or stripe.
func (r Range) split(n int) []Range {
	per := r.Len() / int64(n)
	out := make([]Range, n)
	for i := range out {
		out[i] = Range{r.Start + int64(i)*per, r.Start + int64(i+1)*per}
	}
	out[n-1].End = r.End
	return out
}

// RangeSet tracks which byte ranges of a file have been received. It backs
// GridFTP's "reliable and restartable data transfer": after an interrupted
// transfer the client re-requests exactly the missing ranges (the protocol's
// restart markers are byte ranges in extended block mode). The zero value
// is an empty set. RangeSet is not safe for concurrent use; callers
// synchronize.
type RangeSet struct {
	ranges []Range // sorted, disjoint, non-adjacent
}

// Add marks [start, end) as received, merging with existing ranges.
func (s *RangeSet) Add(start, end int64) {
	if start < 0 || end <= start {
		return
	}
	// Find insertion window of overlapping or adjacent ranges.
	i := sort.Search(len(s.ranges), func(i int) bool { return s.ranges[i].End >= start })
	j := i
	for j < len(s.ranges) && s.ranges[j].Start <= end {
		j++
	}
	if i < j {
		if s.ranges[i].Start < start {
			start = s.ranges[i].Start
		}
		if s.ranges[j-1].End > end {
			end = s.ranges[j-1].End
		}
	}
	merged := append([]Range{}, s.ranges[:i]...)
	merged = append(merged, Range{start, end})
	merged = append(merged, s.ranges[j:]...)
	s.ranges = merged
}

// Covered returns the total number of bytes in the set.
func (s *RangeSet) Covered() int64 {
	var n int64
	for _, r := range s.ranges {
		n += r.Len()
	}
	return n
}

// Complete reports whether [0, total) is fully covered.
func (s *RangeSet) Complete(total int64) bool {
	if total == 0 {
		return true
	}
	return len(s.ranges) == 1 && s.ranges[0].Start == 0 && s.ranges[0].End >= total
}

// Missing returns the gaps in [0, total), in order.
func (s *RangeSet) Missing(total int64) []Range {
	var out []Range
	var pos int64
	for _, r := range s.ranges {
		if r.Start >= total {
			break
		}
		if r.Start > pos {
			out = append(out, Range{pos, r.Start})
		}
		if r.End > pos {
			pos = r.End
		}
	}
	if pos < total {
		out = append(out, Range{pos, total})
	}
	return out
}

// Ranges returns a copy of the covered ranges.
func (s *RangeSet) Ranges() []Range {
	return append([]Range(nil), s.ranges...)
}

// String renders the set as "0-1024,2048-4096" (FTP restart-marker style).
func (s *RangeSet) String() string {
	parts := make([]string, len(s.ranges))
	for i, r := range s.ranges {
		parts[i] = fmt.Sprintf("%d-%d", r.Start, r.End)
	}
	return strings.Join(parts, ",")
}
