package obs

import (
	"fmt"
	"strconv"
	"strings"
)

// Scrape is one parsed text exposition: what `gdmp status` reads back from
// a site's gdmp.metrics reply, bytes that site controls.
type Scrape struct {
	Typed  map[string]bool     // families with a # TYPE line
	Help   map[string]string   // family -> its # HELP text
	Series map[string][]Sample // series name -> its samples, in text order
}

// Sample is one `name{labels} value` line of an exposition.
type Sample struct {
	Labels map[string]string
	Value  float64
}

// ParseText reads the text exposition format as WriteText writes it:
// # HELP and # TYPE lines, then one `name{labels} value` line per series.
// Other comments and blank lines are skipped; a malformed sample line is
// an error.
func ParseText(text string) (*Scrape, error) {
	s := &Scrape{Typed: map[string]bool{}, Help: map[string]string{}, Series: map[string][]Sample{}}
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, _ := strings.Cut(rest, " ")
			s.Help[name] = help
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, _ := strings.Cut(rest, " ")
			s.Typed[name] = true
			continue
		}
		if line == "" || line[0] == '#' {
			continue
		}
		name, smp, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		s.Series[name] = append(s.Series[name], smp)
	}
	return s, nil
}

// parseSample reads one `name{k="v",...} value` line; label values are
// quoted with the escapes strconv.Unquote reads.
func parseSample(line string) (string, Sample, error) {
	var s Sample
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return "", s, fmt.Errorf("no value")
	}
	name, rest := line[:i], line[i:]
	if rest[0] == '{' {
		s.Labels = map[string]string{}
		rest = rest[1:]
		for !strings.HasPrefix(rest, "}") {
			key, after, ok := strings.Cut(rest, "=")
			if !ok {
				return "", s, fmt.Errorf("malformed labels")
			}
			quoted, err := strconv.QuotedPrefix(after)
			if err != nil {
				return "", s, err
			}
			s.Labels[key], _ = strconv.Unquote(quoted)
			rest = strings.TrimPrefix(after[len(quoted):], ",")
		}
		rest = rest[1:]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	s.Value = v
	return name, s, err
}
