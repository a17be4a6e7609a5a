package pager

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Every file this repository replaces atomically — index checkpoints,
// the WAL epoch sidecar, the shard manifest, a follower's downloaded
// snapshot — goes through one protocol: write a temporary file, fsync
// it, rename it over the target, fsync the directory. A crash at any
// point leaves the old target or the whole new one, never a torn file.

// PublishFile runs the whole protocol for a target that is a plain byte
// stream: write fills path + ".tmp", which then replaces path.
func PublishFile(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	if err := WriteFileSync(tmp, write); err != nil {
		return err
	}
	return CommitFile(tmp, path)
}

// WriteFileSync is the first half, for callers that must act between
// the write and the commit: it creates (or truncates) path, fills it
// through write and fsyncs it. On any failure the partial file is
// removed.
func WriteFileSync(path string, write func(io.Writer) error) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
	}
	return err
}

// CommitFile is the commit half, also for temporaries written some other
// way (an index built through a page device): tmp — complete, fsynced
// and closed — is renamed over path, and the rename is made durable by
// a directory fsync. Before the rename a crash leaves the old path;
// after it, the new one. A failed rename removes tmp.
func CommitFile(tmp, path string) error {
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("commit: %w", err)
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory, making a just-committed rename durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("sync dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("sync dir %s: %w", dir, err)
	}
	return nil
}
