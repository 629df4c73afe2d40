// Package objectstore is the object persistency layer of the paper's data
// model (Section 2.1), standing in for Objectivity/DB. It provides:
//
//   - database files that each hold many persistent objects — the paper is
//     explicit that one object per file would not scale, since experiments
//     store 10^7..10^9+ objects;
//   - a federation: the site-local catalog of attached database files, with
//     the attach operation GDMP performs as its Objectivity-specific
//     post-processing step ("attach a database file to a local federation
//     and thus insert it to an internal file catalog");
//   - object identifiers that encode their database, so the object-to-file
//     mapping of Figure 1 is structural, as in Objectivity;
//   - navigational associations between objects, possibly crossing files.
//     If an association's target database is not attached locally,
//     navigation fails — precisely the hazard that forces GDMP to treat
//     such files as "associated files" and replicate them together;
//   - read-only semantics after creation, the property Section 2.1 says
//     most HEP objects can be given via versioning, and which the object
//     replication service requires outright.
package objectstore

import (
	"fmt"
	"strconv"
	"strings"
)

// OID identifies a persistent object: the database file that owns it and
// its slot within that database. Because the database id is part of the
// identifier, the object-to-file catalog of Figure 1 reduces to the
// federation's db-to-file map, exactly as in Objectivity.
type OID struct {
	DB   uint32
	Slot uint32
}

// String renders the OID as "db:slot".
func (o OID) String() string {
	return fmt.Sprintf("%d:%d", o.DB, o.Slot)
}

// ParseOID parses the "db:slot" form.
func ParseOID(s string) (OID, error) {
	dbStr, slotStr, ok := strings.Cut(s, ":")
	if !ok {
		return OID{}, fmt.Errorf("objectstore: bad OID %q", s)
	}
	db, err := strconv.ParseUint(dbStr, 10, 32)
	if err != nil {
		return OID{}, fmt.Errorf("objectstore: bad OID db in %q", s)
	}
	slot, err := strconv.ParseUint(slotStr, 10, 32)
	if err != nil {
		return OID{}, fmt.Errorf("objectstore: bad OID slot in %q", s)
	}
	return OID{DB: uint32(db), Slot: uint32(slot)}, nil
}

// Object is one persistent, read-only-after-creation object.
type Object struct {
	OID OID

	// Type labels the object's role in the event model: the paper's
	// examples range from small tag objects (~100 bytes) used by early
	// analysis cuts to 10 MB raw-data objects read only at the end.
	Type string

	// Event is the physics event number this object belongs to. Every
	// event has a unique number and a set of objects of various types.
	Event uint64

	// Assocs are navigational associations to other objects, possibly in
	// other database files.
	Assocs []OID

	// Data is the payload.
	Data []byte
}

// Meta is the index entry for an object: everything except the payload.
type Meta struct {
	OID    OID
	Type   string
	Event  uint64
	Assocs []OID
	Size   int64
}
