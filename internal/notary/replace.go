package notary

import (
	"io"
	"os"
	"path/filepath"
)

// ReplaceFile atomically creates or replaces a file in dir (created if
// missing): the write path of what tlsage keeps on disk beside the record
// log — study snapshots, and the edge's shipped-through cursor file when it
// is created or converted from an older build's (federation.SaveShippedState;
// the pusher writes later cursors in place). write streams the
// content into a temp file beside the target (tmpPattern with its * filled
// in) and returns the final base name, which may depend on what was written.
// The temp file is fsynced, closed and renamed into place, then the
// directory is fsynced so the rename survives power loss: no reader sees a
// torn file under the final name, and a failed write leaves only the old one.
func ReplaceFile(dir, tmpPattern string, write func(w io.Writer) (name string, err error)) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, tmpPattern)
	if err != nil {
		return err
	}
	name, err := write(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(dir, name))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	// Best-effort: some filesystems reject directory fsync.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}
