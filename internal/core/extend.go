package core

import (
	"fmt"
	"os"
	"path/filepath"

	"gdmp/internal/rpc"
)

// JoinDataDir resolves a site-relative path inside the site's data
// directory, creating parent directories so a service can write there
// before publishing.
func JoinDataDir(s *Site, rel string) (string, error) {
	full, err := s.resolveLocal(rel)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
		return "", err
	}
	return full, nil
}

// This file exposes the extension surface other services build on. The
// paper positions GDMP as "extensible to meet future needs"; the object
// replication prototype of Section 5 is exactly such an extension: it
// registers additional Request Manager methods on a site and reuses the
// site's security, transfer, and catalog machinery.

// HandleRPC registers an additional Request Manager method on this site.
// The method name doubles as the ACL operation required of callers.
func (s *Site) HandleRPC(method string, h rpc.Handler) {
	s.gdmpSrv.Handle(method, h)
}

// CallRemote invokes a Request Manager method on another site using this
// site's credential and transport settings.
func (s *Site) CallRemote(addr, method string, args *rpc.Encoder) (*rpc.Decoder, error) {
	return s.call(s.ctx, addr, method, args)
}

// RemoveLocal deletes this site's replica of a logical file: the bytes on
// disk (with their parity sidecar), the local catalog entry, and the
// replica catalog location. The logical file itself (and replicas
// elsewhere) survive. Object replication uses this to delete extraction
// files at the source after transfer (Section 5.2: "after having been
// transferred, the files are deleted on the source site(s)").
func (s *Site) RemoveLocal(lfn string) error {
	fi, ok := s.local.get(lfn)
	if !ok {
		return fmt.Errorf("core: %q is not replicated at %s", lfn, s.cfg.Name)
	}
	return s.withdraw(s.ctx, fi, bytesUnlinked, true)
}

// DeleteLogical removes the logical file entirely from the Grid: local
// replica (if any) plus the catalog entry with all locations. Only the
// producing site should call this.
func (s *Site) DeleteLogical(lfn string) error {
	if fi, ok := s.local.get(lfn); ok {
		if err := s.withdraw(s.ctx, fi, bytesUnlinked, false); err != nil {
			return err
		}
	}
	return s.rc.Delete(s.ctx, lfn)
}
