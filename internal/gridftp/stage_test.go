package gridftp

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestStageHook pins ServerConfig.Stage: a read verb that finds its file
// missing asks the hook for it once and then answers from disk; a file on
// disk never reaches the hook; a failed stage is a 550 that a reliable get
// treats as permanent.
func TestStageHook(t *testing.T) {
	var (
		mu    sync.Mutex
		calls []string
	)
	staged := func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), calls...)
	}
	want := []byte("bytes that were on tape")
	addr, root := startServer(t, func(cfg *ServerConfig) {
		cfg.Stage = func(p string) error {
			mu.Lock()
			calls = append(calls, p)
			mu.Unlock()
			if strings.HasPrefix(p, "offline/") {
				return errors.New("tape offline")
			}
			full := filepath.Join(cfg.Root, filepath.FromSlash(p))
			if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
				return err
			}
			return os.WriteFile(full, want, 0o644)
		}
	})

	t.Run("missing file is staged once, then answered", func(t *testing.T) {
		before := len(staged())
		n, err := dial(t, addr).Size("tape/cold.db")
		if err != nil {
			t.Fatalf("SIZE of a stageable file: %v", err)
		}
		if n != int64(len(want)) {
			t.Fatalf("SIZE = %d, want %d", n, len(want))
		}
		if got := staged()[before:]; len(got) != 1 || got[0] != "tape/cold.db" {
			t.Fatalf("Stage calls = %q, want one for tape/cold.db", got)
		}
	})

	t.Run("file on disk never reaches the hook", func(t *testing.T) {
		makeFile(t, root, "disk/warm.db", 50_000, 3)
		before := len(staged())
		cl := dial(t, addr)
		if _, err := cl.Size("disk/warm.db"); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Checksum("disk/warm.db"); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.GetFile("disk/warm.db", filepath.Join(t.TempDir(), "out.db")); err != nil {
			t.Fatal(err)
		}
		if got := staged()[before:]; len(got) != 0 {
			t.Fatalf("Stage called for a file on disk: %q", got)
		}
	})

	t.Run("failed stage is a permanent 550", func(t *testing.T) {
		before := len(staged())
		dials := 0
		connect := func(context.Context) (*Client, error) {
			dials++
			return Dial(addr, cred(t, "user/"+t.Name()), roots(t))
		}
		_, err := ReliableGetFile(context.Background(), connect, "offline/lost.db",
			filepath.Join(t.TempDir(), "out.db"), fastPolicy(3))
		var re *ReplyError
		if !errors.As(err, &re) || re.Code != codeNoFile {
			t.Fatalf("err = %v, want a 550 reply", err)
		}
		if dials != 1 {
			t.Fatalf("reliable get dialed %d sessions, want 1 (550 is permanent)", dials)
		}
		if got := staged()[before:]; len(got) != 1 || got[0] != "offline/lost.db" {
			t.Fatalf("Stage calls = %q, want one for offline/lost.db", got)
		}
	})
}
