package replica

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// The catalog's query language is a subset of RFC 2254 LDAP search filters,
// the language the Globus Replica Catalog inherits from its LDAP backend:
//
//	filter     = "(" ( and / or / not / item ) ")"
//	and        = "&" filter *filter
//	or         = "|" filter *filter
//	not        = "!" filter
//	item       = attr ( "=" / ">=" / "<=" ) value
//	value      = any characters except ")" ; "*" is a wildcard in "="
//
// Comparisons with ">=" and "<=" are numeric when both sides parse as
// integers, otherwise lexicographic. "=" supports "*" wildcards
// (substring/prefix/suffix matching) and "(attr=*)" presence tests.

// ErrBadFilter reports a syntactically invalid filter expression.
var ErrBadFilter = errors.New("replica: bad filter")

// Filter is a compiled query over logical-file attributes.
type Filter interface {
	// Match reports whether the logical file satisfies the filter.
	Match(f *LogicalFile) bool
	// String renders the filter back to its canonical text form.
	String() string
}

type andFilter struct{ subs []Filter }

func (a *andFilter) Match(f *LogicalFile) bool {
	for _, s := range a.subs {
		if !s.Match(f) {
			return false
		}
	}
	return true
}

func (a *andFilter) String() string { return composite("&", a.subs) }

type orFilter struct{ subs []Filter }

func (o *orFilter) Match(f *LogicalFile) bool {
	for _, s := range o.subs {
		if s.Match(f) {
			return true
		}
	}
	return false
}

func (o *orFilter) String() string { return composite("|", o.subs) }

type notFilter struct{ sub Filter }

func (n *notFilter) Match(f *LogicalFile) bool { return !n.sub.Match(f) }
func (n *notFilter) String() string            { return "(!" + n.sub.String() + ")" }

func composite(op string, subs []Filter) string {
	var b strings.Builder
	b.WriteString("(")
	b.WriteString(op)
	for _, s := range subs {
		b.WriteString(s.String())
	}
	b.WriteString(")")
	return b.String()
}

type cmpOp int

const (
	opEq cmpOp = iota
	opGE
	opLE
)

type itemFilter struct {
	attr  string
	op    cmpOp
	value string
}

// attrValue resolves an attribute, treating "name" as the logical file name
// so filters can select on it directly.
func attrValue(f *LogicalFile, attr string) (string, bool) {
	if attr == "name" {
		return f.Name, true
	}
	v, ok := f.Attrs[attr]
	return v, ok
}

func (i *itemFilter) Match(f *LogicalFile) bool {
	got, ok := attrValue(f, i.attr)
	if !ok {
		return false
	}
	switch i.op {
	case opEq:
		return wildcardMatch(i.value, got)
	case opGE:
		return compare(got, i.value) >= 0
	case opLE:
		return compare(got, i.value) <= 0
	}
	return false
}

func (i *itemFilter) String() string {
	op := "="
	switch i.op {
	case opGE:
		op = ">="
	case opLE:
		op = "<="
	}
	return "(" + i.attr + op + i.value + ")"
}

// compare orders two attribute values: numerically when both are integers,
// lexicographically otherwise.
func compare(a, b string) int {
	na, ea := strconv.ParseInt(a, 10, 64)
	nb, eb := strconv.ParseInt(b, 10, 64)
	if ea == nil && eb == nil {
		switch {
		case na < nb:
			return -1
		case na > nb:
			return 1
		default:
			return 0
		}
	}
	return strings.Compare(a, b)
}

// wildcardMatch matches a pattern containing "*" wildcards against a value.
func wildcardMatch(pattern, value string) bool {
	parts := strings.Split(pattern, "*")
	if len(parts) == 1 {
		return pattern == value
	}
	// Leading segment anchors at the start.
	if !strings.HasPrefix(value, parts[0]) {
		return false
	}
	value = value[len(parts[0]):]
	// Trailing segment anchors at the end.
	last := parts[len(parts)-1]
	if !strings.HasSuffix(value, last) {
		return false
	}
	value = value[:len(value)-len(last)]
	// Middle segments must appear in order.
	for _, mid := range parts[1 : len(parts)-1] {
		if mid == "" {
			continue
		}
		idx := strings.Index(value, mid)
		if idx < 0 {
			return false
		}
		value = value[idx+len(mid):]
	}
	return true
}

// maxFilterDepth bounds the nesting of "&", "|" and "!": the parser recurses
// once per level, and a query arrives from a peer in a frame of up to
// 128 MiB, enough "(!" to exhaust any goroutine stack.
const maxFilterDepth = 100

// ParseFilter compiles a filter expression.
func ParseFilter(s string) (Filter, error) {
	p := &filterParser{in: s}
	f, err := p.parse(1)
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.in) {
		return nil, fmt.Errorf("%w: trailing input at %d in %q", ErrBadFilter, p.pos, s)
	}
	return f, nil
}

type filterParser struct {
	in  string
	pos int
}

func (p *filterParser) skipSpace() {
	for p.pos < len(p.in) && (p.in[p.pos] == ' ' || p.in[p.pos] == '\t') {
		p.pos++
	}
}

func (p *filterParser) expect(c byte) error {
	p.skipSpace()
	if p.pos >= len(p.in) || p.in[p.pos] != c {
		return fmt.Errorf("%w: expected %q at %d in %q", ErrBadFilter, string(c), p.pos, p.in)
	}
	p.pos++
	return nil
}

func (p *filterParser) peek() byte {
	p.skipSpace()
	if p.pos >= len(p.in) {
		return 0
	}
	return p.in[p.pos]
}

// parse reads one parenthesised filter at the given nesting depth.
func (p *filterParser) parse(depth int) (Filter, error) {
	if depth > maxFilterDepth {
		return nil, fmt.Errorf("%w: nested deeper than %d at %d", ErrBadFilter, maxFilterDepth, p.pos)
	}
	if err := p.expect('('); err != nil {
		return nil, err
	}
	var f Filter
	var err error
	switch p.peek() {
	case '&':
		p.pos++
		f, err = p.parseList(depth, func(subs []Filter) Filter { return &andFilter{subs} })
	case '|':
		p.pos++
		f, err = p.parseList(depth, func(subs []Filter) Filter { return &orFilter{subs} })
	case '!':
		p.pos++
		var sub Filter
		sub, err = p.parse(depth + 1)
		if err == nil {
			f = &notFilter{sub}
		}
	default:
		f, err = p.parseItem()
	}
	if err != nil {
		return nil, err
	}
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	return f, nil
}

func (p *filterParser) parseList(depth int, build func([]Filter) Filter) (Filter, error) {
	var subs []Filter
	for p.peek() == '(' {
		sub, err := p.parse(depth + 1)
		if err != nil {
			return nil, err
		}
		subs = append(subs, sub)
	}
	if len(subs) == 0 {
		return nil, fmt.Errorf("%w: empty composite at %d in %q", ErrBadFilter, p.pos, p.in)
	}
	return build(subs), nil
}

func (p *filterParser) parseItem() (Filter, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.in) && p.in[p.pos] != '=' && p.in[p.pos] != '>' && p.in[p.pos] != '<' && p.in[p.pos] != ')' && p.in[p.pos] != '(' {
		p.pos++
	}
	// Trimmed of the blanks skipSpace skips and nothing else, so the text
	// String renders from attr parses back to it.
	attr := strings.Trim(p.in[start:p.pos], " \t")
	if attr == "" {
		return nil, fmt.Errorf("%w: missing attribute at %d in %q", ErrBadFilter, start, p.in)
	}
	var op cmpOp
	switch {
	case strings.HasPrefix(p.in[p.pos:], ">="):
		op = opGE
		p.pos += 2
	case strings.HasPrefix(p.in[p.pos:], "<="):
		op = opLE
		p.pos += 2
	case p.pos < len(p.in) && p.in[p.pos] == '=':
		op = opEq
		p.pos++
	default:
		return nil, fmt.Errorf("%w: missing operator at %d in %q", ErrBadFilter, p.pos, p.in)
	}
	vstart := p.pos
	for p.pos < len(p.in) && p.in[p.pos] != ')' && p.in[p.pos] != '(' {
		p.pos++
	}
	value := p.in[vstart:p.pos]
	if op == opEq && value == "*" {
		return &presentFilter{attr: attr}, nil
	}
	return &itemFilter{attr: attr, op: op, value: value}, nil
}

// presentFilter implements "(attr=*)" presence tests.
type presentFilter struct{ attr string }

func (pf *presentFilter) Match(f *LogicalFile) bool {
	_, ok := attrValue(f, pf.attr)
	return ok
}

func (pf *presentFilter) String() string { return "(" + pf.attr + "=*)" }
