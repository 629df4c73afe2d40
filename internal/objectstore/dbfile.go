package objectstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"gdmp/internal/durable"
)

// Database file layout (all integers big-endian):
//
//	header:  magic[8] | dbid u32 | count u32 | indexOff u64 | indexCRC u32
//	data:    concatenated object payloads
//	index:   per object: slot u32 | event u64 | typeLen u16 | type |
//	         nAssoc u16 | (db u32, slot u32)* | dataOff u64 | dataLen u32
//
// The header is written last (patched in place), so a crashed writer leaves
// a file that fails to open rather than one that reads garbage. The index
// CRC detects on-disk corruption beyond what the filesystem reports.

var dbMagic = [8]byte{'G', 'D', 'M', 'P', 'O', 'D', 'B', '1'}

const dbHeaderLen = 8 + 4 + 4 + 8 + 4

// Errors returned by database file operations.
var (
	ErrNotDatabase  = errors.New("objectstore: not a database file")
	ErrCorrupt      = errors.New("objectstore: corrupt database file")
	ErrNoObject     = errors.New("objectstore: no such object")
	ErrWriterClosed = errors.New("objectstore: writer already closed")
	ErrDuplicate    = errors.New("objectstore: duplicate slot")
)

// Writer creates a new database file. Objects are appended and become
// immutable once Close succeeds (read-only persistency).
type Writer struct {
	f      *os.File
	w      *bufio.Writer
	dbid   uint32
	offset int64
	metas  []Meta
	slots  map[uint32]bool
	closed bool
}

// Create starts a new database file with the given id.
func Create(path string, dbid uint32) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := &Writer{f: f, w: bufio.NewWriter(f), dbid: dbid, slots: make(map[uint32]bool)}
	// Reserve header space; patched on Close.
	if _, err := w.w.Write(make([]byte, dbHeaderLen)); err != nil {
		f.Close()
		return nil, err
	}
	w.offset = dbHeaderLen
	return w, nil
}

// DBID returns the database id being written.
func (w *Writer) DBID() uint32 { return w.dbid }

// Add appends one object. The object's OID.DB must match the writer's id
// (or be zero, in which case it is stamped); slots must be unique.
func (w *Writer) Add(obj *Object) error {
	if w.closed {
		return ErrWriterClosed
	}
	if obj.OID.DB != 0 && obj.OID.DB != w.dbid {
		return fmt.Errorf("objectstore: object %v belongs to db %d, writer is db %d",
			obj.OID, obj.OID.DB, w.dbid)
	}
	if w.slots[obj.OID.Slot] {
		return fmt.Errorf("%w: %d", ErrDuplicate, obj.OID.Slot)
	}
	w.slots[obj.OID.Slot] = true
	if _, err := w.w.Write(obj.Data); err != nil {
		return err
	}
	w.metas = append(w.metas, Meta{
		OID:    OID{DB: w.dbid, Slot: obj.OID.Slot},
		Type:   obj.Type,
		Event:  obj.Event,
		Assocs: append([]OID(nil), obj.Assocs...),
		Size:   int64(len(obj.Data)),
	})
	w.metas[len(w.metas)-1].OID.Slot = obj.OID.Slot
	w.offset += int64(len(obj.Data))
	return nil
}

// Close writes the index and header and syncs the file.
func (w *Writer) Close() error {
	if w.closed {
		return ErrWriterClosed
	}
	w.closed = true

	index := encodeIndex(w.metas, dbHeaderLen)
	if _, err := w.w.Write(index); err != nil {
		w.f.Close()
		return err
	}
	if err := w.w.Flush(); err != nil {
		w.f.Close()
		return err
	}

	var hdr [dbHeaderLen]byte
	copy(hdr[:8], dbMagic[:])
	binary.BigEndian.PutUint32(hdr[8:12], w.dbid)
	binary.BigEndian.PutUint32(hdr[12:16], uint32(len(w.metas)))
	binary.BigEndian.PutUint64(hdr[16:24], uint64(w.offset))
	binary.BigEndian.PutUint32(hdr[24:28], crc32.ChecksumIEEE(index))
	if _, err := w.f.WriteAt(hdr[:], 0); err != nil {
		w.f.Close()
		return err
	}
	if err := durable.Sync(w.f); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// encodeIndex serializes the object index. Data offsets are computed from
// the running payload layout starting at base.
func encodeIndex(metas []Meta, base int64) []byte {
	var buf []byte
	u16 := func(v uint16) { buf = binary.BigEndian.AppendUint16(buf, v) }
	u32 := func(v uint32) { buf = binary.BigEndian.AppendUint32(buf, v) }
	u64 := func(v uint64) { buf = binary.BigEndian.AppendUint64(buf, v) }
	off := base
	for _, m := range metas {
		u32(m.OID.Slot)
		u64(m.Event)
		u16(uint16(len(m.Type)))
		buf = append(buf, m.Type...)
		u16(uint16(len(m.Assocs)))
		for _, a := range m.Assocs {
			u32(a.DB)
			u32(a.Slot)
		}
		u64(uint64(off))
		u32(uint32(m.Size))
		off += m.Size
	}
	return buf
}

// DB is an open, read-only database file.
type DB struct {
	f      *os.File
	dbid   uint32
	metas  []Meta
	bySlot map[uint32]int
	starts map[uint32]int64 // slot -> payload offset
}

// Open reads and validates a database file's header and index.
func Open(path string) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	db, err := openFile(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return db, nil
}

func openFile(f *os.File) (*DB, error) {
	var hdr [dbHeaderLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header", ErrNotDatabase)
	}
	if [8]byte(hdr[:8]) != dbMagic {
		return nil, ErrNotDatabase
	}
	dbid := binary.BigEndian.Uint32(hdr[8:12])
	count := binary.BigEndian.Uint32(hdr[12:16])
	indexOff := int64(binary.BigEndian.Uint64(hdr[16:24]))
	indexCRC := binary.BigEndian.Uint32(hdr[24:28])

	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if indexOff < dbHeaderLen || indexOff > info.Size() {
		return nil, fmt.Errorf("%w: bad index offset", ErrCorrupt)
	}
	index := make([]byte, info.Size()-indexOff)
	if _, err := f.ReadAt(index, indexOff); err != nil {
		return nil, fmt.Errorf("%w: read index: %v", ErrCorrupt, err)
	}
	if crc32.ChecksumIEEE(index) != indexCRC {
		return nil, fmt.Errorf("%w: index checksum mismatch", ErrCorrupt)
	}

	db := &DB{
		f:      f,
		dbid:   dbid,
		bySlot: make(map[uint32]int, count),
		starts: make(map[uint32]int64, count),
	}
	pos := 0
	fail := func(what string) (*DB, error) {
		return nil, fmt.Errorf("%w: truncated index (%s)", ErrCorrupt, what)
	}
	need := func(n int) bool { return pos+n <= len(index) }
	for i := uint32(0); i < count; i++ {
		if !need(4 + 8 + 2) {
			return fail("entry header")
		}
		slot := binary.BigEndian.Uint32(index[pos:])
		pos += 4
		event := binary.BigEndian.Uint64(index[pos:])
		pos += 8
		typeLen := int(binary.BigEndian.Uint16(index[pos:]))
		pos += 2
		if !need(typeLen + 2) {
			return fail("type")
		}
		typ := string(index[pos : pos+typeLen])
		pos += typeLen
		nAssoc := int(binary.BigEndian.Uint16(index[pos:]))
		pos += 2
		if !need(nAssoc*8 + 8 + 4) {
			return fail("assocs")
		}
		assocs := make([]OID, nAssoc)
		for j := 0; j < nAssoc; j++ {
			assocs[j] = OID{
				DB:   binary.BigEndian.Uint32(index[pos:]),
				Slot: binary.BigEndian.Uint32(index[pos+4:]),
			}
			pos += 8
		}
		dataOff := int64(binary.BigEndian.Uint64(index[pos:]))
		pos += 8
		dataLen := int64(binary.BigEndian.Uint32(index[pos:]))
		pos += 4
		if dataOff < dbHeaderLen || dataOff+dataLen > indexOff {
			return nil, fmt.Errorf("%w: object %d data out of bounds", ErrCorrupt, slot)
		}
		if _, dup := db.bySlot[slot]; dup {
			return nil, fmt.Errorf("%w: duplicate slot %d", ErrCorrupt, slot)
		}
		db.bySlot[slot] = len(db.metas)
		db.starts[slot] = dataOff
		db.metas = append(db.metas, Meta{
			OID:    OID{DB: dbid, Slot: slot},
			Type:   typ,
			Event:  event,
			Assocs: assocs,
			Size:   dataLen,
		})
	}
	if pos != len(index) {
		return nil, fmt.Errorf("%w: trailing index bytes", ErrCorrupt)
	}
	return db, nil
}

// Close releases the file handle.
func (db *DB) Close() error { return db.f.Close() }

// DBID returns the database id.
func (db *DB) DBID() uint32 { return db.dbid }

// Len returns the number of objects.
func (db *DB) Len() int { return len(db.metas) }

// Metas returns the index entries (shared slice; treat as read-only).
func (db *DB) Metas() []Meta { return db.metas }

// Meta returns one object's index entry.
func (db *DB) Meta(slot uint32) (Meta, error) {
	i, ok := db.bySlot[slot]
	if !ok {
		return Meta{}, fmt.Errorf("%w: %d:%d", ErrNoObject, db.dbid, slot)
	}
	return db.metas[i], nil
}

// Read loads one object, payload included.
func (db *DB) Read(slot uint32) (*Object, error) {
	m, err := db.Meta(slot)
	if err != nil {
		return nil, err
	}
	data := make([]byte, m.Size)
	if _, err := db.f.ReadAt(data, db.starts[slot]); err != nil {
		return nil, fmt.Errorf("objectstore: read %v: %w", m.OID, err)
	}
	return &Object{OID: m.OID, Type: m.Type, Event: m.Event, Assocs: m.Assocs, Data: data}, nil
}

// ForeignDBs returns the set of other database ids referenced by this
// file's associations — the "associated files" that must be co-replicated
// to preserve navigation (Section 2.1).
func (db *DB) ForeignDBs() []uint32 {
	seen := make(map[uint32]bool)
	for _, m := range db.metas {
		for _, a := range m.Assocs {
			if a.DB != db.dbid {
				seen[a.DB] = true
			}
		}
	}
	out := make([]uint32, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sortUint32(out)
	return out
}

func sortUint32(s []uint32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TotalBytes returns the sum of payload sizes.
func (db *DB) TotalBytes() int64 {
	var n int64
	for _, m := range db.metas {
		n += m.Size
	}
	return n
}
