package core

import (
	"testing"
	"testing/quick"
)

func TestPFNRoundTrip(t *testing.T) {
	p := PFN{Addr: "cern.ch:2811", Path: "data/run42.db"}
	s := p.String()
	if s != "gridftp://cern.ch:2811/data/run42.db" {
		t.Fatalf("String = %q", s)
	}
	parsed, err := ParsePFN(s)
	if err != nil {
		t.Fatal(err)
	}
	if parsed != p {
		t.Fatalf("round trip = %+v", parsed)
	}
}

func TestParsePFNErrors(t *testing.T) {
	bad := []string{
		"",
		"http://cern.ch/x",
		"gridftp://",
		"gridftp://cern.ch:2811",   // no path
		"gridftp://noport/file.db", // no port
	}
	for _, s := range bad {
		if _, err := ParsePFN(s); err == nil {
			t.Errorf("ParsePFN(%q) accepted", s)
		}
	}
}

func TestPFNPropertyRoundTrip(t *testing.T) {
	f := func(host string, port uint16, pathSeg string) bool {
		clean := func(s string) string {
			out := make([]rune, 0, len(s))
			for _, r := range s {
				if r > 32 && r != '/' && r != ':' && r < 127 {
					out = append(out, r)
				}
			}
			if len(out) == 0 {
				return "x"
			}
			return string(out)
		}
		p := PFN{
			Addr: clean(host) + ":" + itoa(int(port)%65535+1),
			Path: clean(pathSeg),
		}
		parsed, err := ParsePFN(p.String())
		return err == nil && parsed == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestLocalCatalog drives the file table the only way it changes, through
// the three file records of a (journal-less) sitePersistence.
func TestLocalCatalog(t *testing.T) {
	p := testPersist(t, "")
	c := p.st.files
	if c.len() != 0 {
		t.Fatal("new catalog not empty")
	}
	p.putFile(FileInfo{LFN: "b", Path: "b", Size: 2, State: StateDisk})
	p.putFile(FileInfo{LFN: "a", Path: "a", Size: 1, State: StateDisk})
	if c.len() != 2 {
		t.Fatalf("len = %d", c.len())
	}
	list := c.list()
	if list[0].LFN != "a" || list[1].LFN != "b" {
		t.Fatalf("list not sorted: %v", list)
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("get(a) missed")
	}
	// A new entry is found by path at once and reported by has once revealed.
	if _, ok := c.getByPath("a"); !ok || c.has("a") {
		t.Fatalf("landing entry: by path %v, has %v; want true, false", ok, c.has("a"))
	}
	arrived := c.await("a")
	c.reveal("a")
	select {
	case <-arrived:
	default:
		t.Fatal("reveal did not release the waiter")
	}
	if !c.has("a") {
		t.Fatal("revealed entry not reported")
	}
	p.setState("a", StateTape)
	fi, _ := c.get("a")
	if fi.State != StateTape {
		t.Fatalf("state = %v", fi.State)
	}
	p.setState("zzz", StateDisk)
	if _, ok := c.get("zzz"); ok || c.len() != 2 {
		t.Fatal("a residency record made an entry")
	}
	// Replacing an entry moves its path and keeps it revealed.
	p.putFile(FileInfo{LFN: "a", Path: "a2", Size: 1, State: StateDisk})
	if _, old := c.getByPath("a"); old || !c.has("a") {
		t.Fatalf("replaced entry: old path %v, has %v; want false, true", old, c.has("a"))
	}
	p.removeFile("a")
	if _, ok := c.get("a"); ok {
		t.Fatal("remove did not remove")
	}
	if _, ok := c.getByPath("a2"); ok {
		t.Fatal("remove left the path index behind")
	}
}
