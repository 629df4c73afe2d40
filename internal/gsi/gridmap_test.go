package gsi

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseGridmap(t *testing.T) {
	in := `
# GDMP site authorization
"/O=DataGrid/CN=alice" gdmp.publish,gdmp.subscribe
"/O=DataGrid/CN=gdmp/cern.ch" *
"*" gdmp.ping

`
	acl, err := ParseGridmap(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ParseGridmap: %v", err)
	}
	alice := Identity{"DataGrid", "alice"}
	service := Identity{"DataGrid", "gdmp/cern.ch"}
	stranger := Identity{"DataGrid", "nobody"}

	if !acl.Authorized(alice, "gdmp.publish") || !acl.Authorized(alice, "gdmp.subscribe") {
		t.Error("alice's grants missing")
	}
	if acl.Authorized(alice, "gdmp.stage") {
		t.Error("alice over-granted")
	}
	if !acl.Authorized(service, "anything") {
		t.Error("service wildcard operation missing")
	}
	if !acl.Authorized(stranger, "gdmp.ping") {
		t.Error("subject wildcard missing")
	}
	if acl.Authorized(stranger, "gdmp.publish") {
		t.Error("stranger over-granted")
	}
	// Proxy identities inherit through the gridmap.
	if !acl.Authorized(Identity{"DataGrid", "alice/proxy"}, "gdmp.publish") {
		t.Error("proxy identity not resolved")
	}
}

func TestParseGridmapErrors(t *testing.T) {
	bad := []string{
		`/O=DataGrid/CN=x op`,  // unquoted subject
		`"/O=DataGrid/CN=x`,    // unterminated quote
		`"/O=DataGrid/CN=x"`,   // no operations
		`"not-a-dn" op`,        // unparseable DN
		`"/X=unknown/CN=y" op`, // bad attribute
	}
	for _, line := range bad {
		if _, err := ParseGridmap(strings.NewReader(line)); err == nil {
			t.Errorf("gridmap line %q accepted", line)
		}
	}
}

func TestLoadGridmapFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gridmap")
	if err := os.WriteFile(path, []byte(`"/O=DataGrid/CN=alice" gdmp.ping`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	acl, err := LoadGridmapFile(path)
	if err != nil {
		t.Fatalf("LoadGridmapFile: %v", err)
	}
	if !acl.Authorized(Identity{"DataGrid", "alice"}, "gdmp.ping") || acl.Authorized(Identity{"DataGrid", "bob"}, "gdmp.ping") {
		t.Error("loaded ACL does not hold exactly the file's grants")
	}
	if _, err := LoadGridmapFile(path + ".missing"); err == nil {
		t.Error("missing gridmap accepted")
	}
	os.WriteFile(path, []byte("unquoted op\n"), 0o644)
	if _, err := LoadGridmapFile(path); err == nil || !strings.Contains(err.Error(), path) {
		t.Errorf("malformed gridmap: err = %v, want one naming the file", err)
	}
}

func TestGridmapEntriesRoundTrip(t *testing.T) {
	acl := NewACL()
	acl.Allow(Identity{"DataGrid", "heinz"}, "rc.register", "rc.query")
	acl.Allow(Identity{"DataGrid", "gdmp/anl.gov"}, AnyOperation)
	acl.AllowAll("gdmp.ping")

	text := strings.Join(acl.Entries(), "\n")
	parsed, err := ParseGridmap(strings.NewReader(text))
	if err != nil {
		t.Fatalf("round trip parse: %v\n%s", err, text)
	}
	for _, check := range []struct {
		id Identity
		op Operation
	}{
		{Identity{"DataGrid", "heinz"}, "rc.register"},
		{Identity{"DataGrid", "heinz"}, "rc.query"},
		{Identity{"DataGrid", "gdmp/anl.gov"}, "whatever"},
		{Identity{"DataGrid", "anyone"}, "gdmp.ping"},
	} {
		if !parsed.Authorized(check.id, check.op) {
			t.Errorf("round trip lost %v %q", check.id, check.op)
		}
	}
	if parsed.Authorized(Identity{"DataGrid", "heinz"}, "rc.delete") {
		t.Error("round trip invented a grant")
	}
}
