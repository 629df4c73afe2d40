package testbed

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"gdmp/internal/durable"
)

// Recorder models what a power cut leaves of a set of directories under
// POSIX's minimal guarantee, not a kinder filesystem's: a file keeps its
// content as of its last fsync (durable.Sync), a directory the entries of
// its last directory fsync (durable.SyncDir), a directory created since
// its parent's last sync is lost with everything in it, and a rename moves
// a file's synced content with its name. It watches those steps through
// durable.Observe; whatever the program writes without them is not there
// after Cut.
type Recorder struct {
	mu    sync.Mutex
	roots []string
	files map[string]*fileImage            // live path → the file now under it
	dirs  map[string]map[string]*fileImage // dir → its entries at its last sync; nil marks a subdirectory

	syncs map[string]int // path → fsyncs of it, file or directory
	err   error          // the first step that could not be recorded
}

// fileImage is one file as a power cut would leave it.
type fileImage struct {
	info os.FileInfo // tells the file from one that replaced it unseen
	data []byte      // content at the last sync
}

// recording dispatches the one durable observer to the live recorders.
var recording struct {
	once sync.Once
	mu   sync.Mutex
	on   map[*Recorder]bool
}

// Record starts recording the durable steps taken under dirs, which must
// exist. Their present content counts as synced, as the harness's own
// inputs do.
func Record(dirs ...string) (*Recorder, error) {
	r := &Recorder{syncs: make(map[string]int)}
	for _, d := range dirs {
		abs, err := filepath.Abs(d)
		if err != nil {
			return nil, err
		}
		r.roots = append(r.roots, abs)
	}
	if err := r.scan(); err != nil {
		return nil, err
	}
	recording.once.Do(func() {
		recording.on = make(map[*Recorder]bool)
		durable.Observe(func(op durable.Op, path, newPath string) {
			recording.mu.Lock()
			defer recording.mu.Unlock()
			for r := range recording.on {
				r.observe(op, path, newPath)
			}
		})
	})
	recording.mu.Lock()
	recording.on[r] = true
	recording.mu.Unlock()
	return r, nil
}

// Stop ends the recording.
func (r *Recorder) Stop() {
	recording.mu.Lock()
	delete(recording.on, r)
	recording.mu.Unlock()
}

// Syncs counts the recorded fsyncs of files and of directories at or
// under dir.
func (r *Recorder) Syncs(dir string) (files, dirs int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if abs, err := filepath.Abs(dir); err == nil {
		dir = abs
	}
	for p, n := range r.syncs {
		if p != dir && !strings.HasPrefix(p, dir+string(filepath.Separator)) {
			continue
		}
		if _, isDir := r.dirs[p]; isDir {
			dirs += n
		} else {
			files += n
		}
	}
	return files, dirs
}

// Cut cuts the power: every recorded directory is rolled back to what its
// fsyncs made durable. Whatever runs there must have stopped first. The
// rolled-back image is the new baseline.
func (r *Recorder) Cut() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return r.err
	}
	for _, root := range r.roots {
		if err := os.RemoveAll(root); err != nil {
			return err
		}
		if err := r.restore(root); err != nil {
			return err
		}
	}
	return r.scan()
}

// restore recreates dir with its synced entries.
func (r *Recorder) restore(dir string) error {
	if err := os.Mkdir(dir, 0o755); err != nil {
		return err
	}
	for name, img := range r.dirs[dir] {
		p := filepath.Join(dir, name)
		var err error
		if img == nil {
			err = r.restore(p)
		} else {
			err = os.WriteFile(p, img.data, 0o644)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// scan takes the recorded directories as they are on disk as synced.
func (r *Recorder) scan() error {
	r.files = make(map[string]*fileImage)
	r.dirs = make(map[string]map[string]*fileImage)
	for _, root := range r.roots {
		err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			return r.syncDir(p, true)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// observe records one durable step, if it is under a recorded directory.
func (r *Recorder) observe(op durable.Op, path, newPath string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	path, ok := r.inside(path)
	if op == durable.OpRename {
		newPath, newOK := r.inside(newPath)
		img := r.files[path]
		delete(r.files, path)
		if img != nil && newOK {
			r.files[newPath] = img
		}
		return
	}
	if !ok {
		return
	}
	r.syncs[path]++
	var err error
	if op == durable.OpSyncDir {
		err = r.syncDir(path, false)
	} else {
		_, err = r.syncFile(path, true)
	}
	// A file removed since the step succeeded has nothing left to record.
	if err != nil && !os.IsNotExist(err) && r.err == nil {
		r.err = fmt.Errorf("testbed: recording %s: %w", path, err)
	}
}

// inside returns path made absolute, and whether it lies under a root.
func (r *Recorder) inside(path string) (string, bool) {
	abs, err := filepath.Abs(path)
	if err != nil {
		return path, false
	}
	for _, root := range r.roots {
		if abs == root || strings.HasPrefix(abs, root+string(filepath.Separator)) {
			return abs, true
		}
	}
	return abs, false
}

// syncDir records dir's entries as durable. A file the recorder has not
// seen synced enters empty, unless read is set (a baseline).
func (r *Recorder) syncDir(dir string, read bool) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	names := make(map[string]*fileImage, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			names[e.Name()] = nil
			continue
		}
		img, err := r.syncFile(filepath.Join(dir, e.Name()), read)
		if os.IsNotExist(err) {
			continue // removed since the listing
		}
		if err != nil {
			return err
		}
		names[e.Name()] = img
	}
	r.dirs[dir] = names
	return nil
}

// syncFile returns the image of the file now at path, a new one if the
// file is new to the recorder, with its content read in if read is set.
func (r *Recorder) syncFile(path string, read bool) (*fileImage, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	img := r.files[path]
	if img == nil || !os.SameFile(img.info, info) {
		img = &fileImage{info: info}
		r.files[path] = img
	}
	if read {
		img.data, err = os.ReadFile(path)
	}
	return img, err
}
