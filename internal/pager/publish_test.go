package pager

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestPublishFileReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path, tmp := filepath.Join(dir, "f"), filepath.Join(dir, "f.tmp")
	for _, content := range []string{"one\n", "two\n"} {
		err := PublishFile(path, func(w io.Writer) error {
			_, err := io.WriteString(w, content)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != content {
			t.Fatalf("published %q, %v; want %q", got, err, content)
		}
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Fatalf("temporary survived the publish: %v", err)
		}
	}
}

func TestWriteFileSyncRemovesPartialFile(t *testing.T) {
	tmp := filepath.Join(t.TempDir(), "f.tmp")
	boom := errors.New("boom")
	err := WriteFileSync(tmp, func(w io.Writer) error {
		io.WriteString(w, "partial")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("partial file left behind: %v", err)
	}
}

func TestCommitFileFailedRenameRemovesTmp(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, "f.tmp")
	if err := os.WriteFile(tmp, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := CommitFile(tmp, filepath.Join(dir, "missing", "f")); err == nil {
		t.Fatal("rename into a missing directory succeeded")
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("temporary survived the failed commit: %v", err)
	}
}
