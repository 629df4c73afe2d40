package replica

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Snapshot persistence. The Globus Replica Catalog stores its state in an
// LDAP database; this implementation persists the catalog as plain,
// line-oriented text snapshots, which also serve GDMP's failure-recovery
// path ("obtaining a remote site's file catalog for failure recovery").
//
// A snapshot is a directory: one meta file with the serial and the
// collections, plus one file per shard with that partition's entries.
// Shard files record which partition of how many they were written as,
// but loading re-hashes every entry into the current shard layout —
// changing the shard count is a rebalance, not a migration. The journaled
// Store is the only caller: Compact writes a fresh directory through
// writeShards, OpenStore reads the live one back through LoadShards.
//
// Meta file (all strings Go-quoted):
//
//	gdmp-replica-rls-meta v1
//	serial <n>
//	coll <name>
//	member <lfn>                # belongs to the preceding coll
//
// Shard file:
//
//	gdmp-replica-shard v1
//	file <lfn>
//	attr <key> <value>          # belongs to the preceding file
//	loc <pfn>                   # belongs to the preceding file
const (
	metaHeader    = "gdmp-replica-rls-meta v1"
	shardHeader   = "gdmp-replica-shard v1"
	metaFileName  = "meta"
	shardFileGlob = "shard-*.snap"
)

func shardFileName(i int) string { return fmt.Sprintf("shard-%04d.snap", i) }

// loaded is the parse result LoadShards builds before installing.
type loaded struct {
	files       map[string]*LogicalFile
	locations   map[string]map[string]bool
	collections map[string]map[string]bool
	serial      uint64
}

func newLoaded() *loaded {
	return &loaded{
		files:       make(map[string]*LogicalFile),
		locations:   make(map[string]map[string]bool),
		collections: make(map[string]map[string]bool),
	}
}

// install replaces the catalog contents, re-hashing every entry into the
// current shard layout.
func (c *Catalog) install(l *loaded) {
	fresh := make([]*catShard, len(c.shards))
	for i := range fresh {
		fresh[i] = newCatShard()
	}
	for name, f := range l.files {
		i := shardIndex(name, len(fresh))
		fresh[i].files[name] = f
		locs := l.locations[name]
		if locs == nil {
			locs = make(map[string]bool)
		}
		fresh[i].locations[name] = locs
	}
	for i, sh := range c.shards {
		sh.mu.Lock()
		sh.files = fresh[i].files
		sh.locations = fresh[i].locations
		sh.mu.Unlock()
	}
	c.collMu.Lock()
	c.collections = l.collections
	c.collMu.Unlock()
	c.serial.Store(l.serial)
}

// sortedKeys returns m's keys in order, so snapshot bytes depend only on
// catalog contents.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeFileEntry emits one file's lines (file/attr/loc) to w.
func writeFileEntry(bw *bufio.Writer, f *LogicalFile, locs map[string]bool) {
	fmt.Fprintf(bw, "file %s\n", strconv.Quote(f.Name))
	for _, k := range sortedKeys(f.Attrs) {
		fmt.Fprintf(bw, "attr %s %s\n", strconv.Quote(k), strconv.Quote(f.Attrs[k]))
	}
	for _, p := range sortedKeys(locs) {
		fmt.Fprintf(bw, "loc %s\n", strconv.Quote(p))
	}
}

// snapParser parses snapshot lines into a loaded state. The meta file
// and the shard files each wrap it with their own header check and verb
// whitelist.
type snapParser struct {
	l      *loaded
	lineNo int
	cur    string // current file (file layout) or collection (coll layout)
	inColl bool
}

func (p *snapParser) fail(format string, args ...interface{}) error {
	return fmt.Errorf("replica: snapshot line %d: %s", p.lineNo, fmt.Sprintf(format, args...))
}

func (p *snapParser) unquote(s string) (string, error) {
	v, err := strconv.Unquote(s)
	if err != nil {
		return "", p.fail("bad quoting in %q", s)
	}
	return v, nil
}

// line consumes one snapshot body line. allowFiles/allowColls gate which
// verbs the calling layout accepts.
func (p *snapParser) line(text string, allowFiles, allowColls bool) error {
	line := strings.TrimSpace(text)
	if line == "" || strings.HasPrefix(line, "#") {
		return nil
	}
	verb, rest, _ := strings.Cut(line, " ")
	switch verb {
	case "serial":
		n, err := strconv.ParseUint(rest, 10, 64)
		if err != nil {
			return p.fail("bad serial %q", rest)
		}
		p.l.serial = n
	case "file":
		if !allowFiles {
			return p.fail("verb %q not allowed here", verb)
		}
		name, err := p.unquote(rest)
		if err != nil {
			return err
		}
		if _, dup := p.l.files[name]; dup {
			return p.fail("duplicate file %q", name)
		}
		p.l.files[name] = &LogicalFile{Name: name, Attrs: make(map[string]string)}
		p.l.locations[name] = make(map[string]bool)
		p.cur, p.inColl = name, false
	case "attr":
		if p.cur == "" || p.inColl {
			return p.fail("attr before file")
		}
		kq, vq, ok := cutQuoted(rest)
		if !ok {
			return p.fail("malformed attr %q", rest)
		}
		k, err := p.unquote(kq)
		if err != nil {
			return err
		}
		v, err := p.unquote(vq)
		if err != nil {
			return err
		}
		p.l.files[p.cur].Attrs[k] = v
	case "loc":
		if p.cur == "" || p.inColl {
			return p.fail("loc before file")
		}
		pfn, err := p.unquote(rest)
		if err != nil {
			return err
		}
		p.l.locations[p.cur][pfn] = true
	case "coll":
		if !allowColls {
			return p.fail("verb %q not allowed here", verb)
		}
		name, err := p.unquote(rest)
		if err != nil {
			return err
		}
		if _, dup := p.l.collections[name]; dup {
			return p.fail("duplicate collection %q", name)
		}
		p.l.collections[name] = make(map[string]bool)
		p.cur, p.inColl = name, true
	case "member":
		if p.cur == "" || !p.inColl {
			return p.fail("member before coll")
		}
		lfn, err := p.unquote(rest)
		if err != nil {
			return err
		}
		p.l.collections[p.cur][lfn] = true
	default:
		return p.fail("unknown verb %q", verb)
	}
	return nil
}

func scanInto(r io.Reader, header string, p *snapParser, allowFiles, allowColls bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		return fmt.Errorf("replica: empty snapshot")
	}
	p.lineNo++
	if strings.TrimSpace(sc.Text()) != header {
		return fmt.Errorf("replica: bad snapshot header %q", sc.Text())
	}
	for sc.Scan() {
		p.lineNo++
		if err := p.line(sc.Text(), allowFiles, allowColls); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("replica: read snapshot: %w", err)
	}
	return nil
}

// checkMembers verifies collection members reference loaded files.
func checkMembers(l *loaded) error {
	for coll, set := range l.collections {
		for lfn := range set {
			if _, ok := l.files[lfn]; !ok {
				return fmt.Errorf("replica: snapshot: collection %q member %q references unknown file", coll, lfn)
			}
		}
	}
	return nil
}

// cutQuoted splits `"k" "v"` into the two quoted tokens.
func cutQuoted(s string) (a, b string, ok bool) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, `"`) {
		return "", "", false
	}
	// Find the closing quote of the first token, honoring escapes.
	for i := 1; i < len(s); i++ {
		if s[i] == '\\' {
			i++
			continue
		}
		if s[i] == '"' {
			return s[:i+1], strings.TrimSpace(s[i+1:]), true
		}
	}
	return "", "", false
}

// writeAtomic writes data produced by fill to path via tmp+rename.
func writeAtomic(path string, fill func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// writeShards writes the catalog as a snapshot directory (created if
// needed), every file atomically (tmp+rename). The catalog must be
// quiesced: the caller holds every shard lock and collMu, as Compact
// does, so the maps are read directly.
func (c *Catalog) writeShards(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, sh := range c.shards {
		err := writeAtomic(filepath.Join(dir, shardFileName(i)), func(w io.Writer) error {
			bw := bufio.NewWriter(w)
			fmt.Fprintln(bw, shardHeader)
			fmt.Fprintf(bw, "# shard %d of %d\n", i, len(c.shards))
			for _, n := range sortedKeys(sh.files) {
				writeFileEntry(bw, sh.files[n], sh.locations[n])
			}
			return bw.Flush()
		})
		if err != nil {
			return err
		}
	}
	return writeAtomic(filepath.Join(dir, metaFileName), func(w io.Writer) error {
		bw := bufio.NewWriter(w)
		fmt.Fprintln(bw, metaHeader)
		fmt.Fprintf(bw, "serial %d\n", c.serial.Load())
		fmt.Fprintf(bw, "# shards %d\n", len(c.shards))
		for _, n := range sortedKeys(c.collections) {
			fmt.Fprintf(bw, "coll %s\n", strconv.Quote(n))
			for _, m := range sortedKeys(c.collections[n]) {
				fmt.Fprintf(bw, "member %s\n", strconv.Quote(m))
			}
		}
		return bw.Flush()
	})
}

// LoadShards replaces the catalog contents with the snapshot directory a
// Store compaction wrote. Entries are re-hashed into the current shard
// layout, so the snapshot may have been written under a different shard
// count — the load is a rebalance.
func (c *Catalog) LoadShards(dir string) error {
	p := &snapParser{l: newLoaded()}
	mf, err := os.Open(filepath.Join(dir, metaFileName))
	if err != nil {
		return err
	}
	err = scanInto(mf, metaHeader, p, false, true)
	mf.Close()
	if err != nil {
		return err
	}
	shardFiles, err := filepath.Glob(filepath.Join(dir, shardFileGlob))
	if err != nil {
		return err
	}
	sort.Strings(shardFiles)
	for _, path := range shardFiles {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		sp := &snapParser{l: p.l}
		err = scanInto(f, shardHeader, sp, true, false)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", filepath.Base(path), err)
		}
	}
	if err := checkMembers(p.l); err != nil {
		return err
	}
	c.install(p.l)
	return nil
}
