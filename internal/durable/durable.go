// Package durable is the one place under internal/ where bytes and names
// are made to survive a power cut. A process kill leaves the page cache to
// reach the disk; a power cut keeps, under POSIX, only a file's content at
// its last fsync and a directory's entries at its last directory fsync.
// Every fsync, rename and directory fsync of a site goes through here, so
// what survives is decided in one place and a test harness can watch it.
package durable

import (
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"
)

// PartSuffix names the staging file WriteAtomic fills next to its target.
const PartSuffix = ".part"

// WriteAtomic replaces path with what fill writes into path+PartSuffix,
// which is then fsynced, closed and renamed over path: path holds its old
// content or all of the new, never a mix. Any failure removes the staging
// file. The rename survives a power cut once the directory is synced
// (SyncDir); a caller that skips that says why.
func WriteAtomic(path string, fill func(*os.File) error) error {
	return writeStaged(path, fill, true)
}

// WriteChecked is WriteAtomic without the fsync, for a file whose reader
// checks every byte of it and whose loss costs only its regeneration (a
// parity sidecar): after a power cut path may hold its old content, or a
// torn or empty file, which the reader must refuse.
func WriteChecked(path string, fill func(*os.File) error) error {
	return writeStaged(path, fill, false)
}

// writeStaged fills path+PartSuffix, fsyncs it if sync is set, and renames
// it over path; any failure removes the staging file.
func writeStaged(path string, fill func(*os.File) error, sync bool) (err error) {
	tmp := path + PartSuffix
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close() // a second Close after a failed one is harmless
			os.Remove(tmp)
		}
	}()
	if err = fill(f); err == nil && sync {
		err = Sync(f)
	}
	if err == nil {
		err = f.Close()
	}
	if err == nil {
		err = Rename(tmp, path)
	}
	return err
}

// Sync fsyncs f, making its content as of now survive a power cut.
func Sync(f *os.File) error {
	err := f.Sync()
	notify(err, OpSync, f.Name(), "")
	return err
}

// Rename renames oldpath to newpath; the file's synced content moves with
// the name, which survives a power cut once its directory is synced.
func Rename(oldpath, newpath string) error {
	err := os.Rename(oldpath, newpath)
	notify(err, OpRename, oldpath, newpath)
	return err
}

// SyncDir fsyncs a directory, making the names created, renamed and removed
// in it survive a power cut. A filesystem that cannot sync a directory
// refuses with EINVAL and offers nothing stronger, so that is success.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if errors.Is(err, syscall.EINVAL) {
		err = nil
	}
	notify(err, OpSyncDir, dir, "")
	return err
}

// MkdirAll creates dir and any missing parents, syncing the parent of each
// directory it creates; an existing directory costs no fsync.
func MkdirAll(dir string) error {
	if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
		return nil
	}
	parent := filepath.Dir(dir)
	if parent != dir {
		if err := MkdirAll(parent); err != nil {
			return err
		}
	}
	// A concurrent creator's directory is as good, once its parent is synced.
	if err := os.Mkdir(dir, 0o755); err != nil {
		if fi, serr := os.Stat(dir); serr != nil || !fi.IsDir() {
			return err
		}
	}
	return SyncDir(parent)
}

// Op is a step an observer sees.
type Op int

const (
	OpSync    Op = iota // path's content is durable
	OpSyncDir           // the entries of directory path are durable
	OpRename            // path was renamed to newPath
)

var observer atomic.Pointer[func(op Op, path, newPath string)]

// Observe installs fn to see every later Sync, SyncDir and Rename in the
// process that succeeds, WriteAtomic's and MkdirAll's included. Production
// code installs none; the test grid's power-cut recorder does.
func Observe(fn func(op Op, path, newPath string)) { observer.Store(&fn) }

func notify(err error, op Op, path, newPath string) {
	if fn := observer.Load(); fn != nil && err == nil {
		(*fn)(op, path, newPath)
	}
}
