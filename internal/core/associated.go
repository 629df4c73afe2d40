package core

import (
	"context"
	"fmt"
	"strings"
)

// This file implements dataset- and closure-granularity replication on top
// of single-file Get:
//
//   - GetCollection replicates a whole catalog collection, because
//     "datasets are normally manipulated as a whole" (Section 3.1);
//   - GetWithAssociated replicates a file together with the transitive
//     closure of its associated object database files, preserving
//     navigation at the destination (Section 2.1: "the two files have to
//     be treated as associated files and replicated together in order to
//     preserve the navigation").

// GetCollection replicates every logical file of a catalog collection to
// this site, returning the LFNs actually fetched (already-present files
// are skipped). The member pulls fan out through the scheduler, so a
// collection downloads with the worker pool's concurrency rather than one
// file at a time.
func (s *Site) GetCollection(collection string) ([]string, error) {
	members, err := s.rc.ListCollection(s.ctx, collection)
	if err != nil {
		return nil, err
	}
	files := make([]FileInfo, len(members))
	for i, lfn := range members {
		files[i] = FileInfo{LFN: lfn}
	}
	return s.pullAll(files, 0, "collection "+collection)
}

// GetWithAssociated replicates a logical file and, for object database
// files, the transitive closure of its associated databases, resolved
// through the replica catalog's dbid/assocdbs attributes. It returns every
// LFN fetched, the requested one first.
//
// Without the closure, navigation from the fetched file to objects in an
// unreplicated database fails with objectstore.ErrNotAttached — exactly the
// hazard Section 2.1 describes.
func (s *Site) GetWithAssociated(lfn string) ([]string, error) {
	ctx := s.ctx
	var fetched []string
	visitedLFN := make(map[string]bool)
	visitedDB := make(map[string]bool)

	queue := []string{lfn}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if visitedLFN[cur] {
			continue
		}
		visitedLFN[cur] = true

		entry, err := s.rc.Lookup(ctx, cur)
		if err != nil {
			return fetched, err
		}
		if !s.HasFile(cur) {
			if err := s.GetCtx(ctx, cur); err != nil {
				return fetched, err
			}
			fetched = append(fetched, cur)
		}
		if dbid := entry.Attrs[AttrDBID]; dbid != "" {
			visitedDB[dbid] = true
		}
		assoc := entry.Attrs[AttrAssocDBs]
		if assoc == "" {
			continue
		}
		for _, dbid := range strings.Split(assoc, ",") {
			dbid = strings.TrimSpace(dbid)
			if dbid == "" || visitedDB[dbid] {
				continue
			}
			visitedDB[dbid] = true
			target, err := s.lfnForDBID(ctx, dbid)
			if err != nil {
				return fetched, fmt.Errorf("core: associated db %s of %s: %w", dbid, cur, err)
			}
			queue = append(queue, target)
		}
	}
	return fetched, nil
}

// lfnForDBID resolves an object database id to its logical file via the
// catalog — the Grid-level half of the object-to-file mapping of Figure 1.
func (s *Site) lfnForDBID(ctx context.Context, dbid string) (string, error) {
	matches, err := s.rc.Query(ctx, "("+AttrDBID+"="+dbid+")")
	if err != nil {
		return "", err
	}
	if len(matches) == 0 {
		return "", fmt.Errorf("core: no published file holds database %s", dbid)
	}
	if len(matches) > 1 {
		return "", fmt.Errorf("core: database id %s is ambiguous (%d files)", dbid, len(matches))
	}
	return matches[0].Name, nil
}
