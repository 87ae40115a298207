package serve

import (
	"cmp"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// WritableFile is the write surface the persistence layer needs from a
// file: sequential writes, durability barriers, close. *os.File satisfies
// it; tests substitute failpoint wrappers through Hooks.
type WritableFile interface {
	io.Writer
	io.Closer
	// Sync flushes written bytes to stable storage.
	Sync() error
}

// Hooks intercept the persistence layer's filesystem operations. They
// exist for fault injection: a test can wrap every file the server opens
// in a failpoint writer that errors or truncates after N bytes, or veto a
// metadata operation (create/append/rename/remove/truncate) outright —
// simulating a crash at any persistence step without killing the process.
// Zero value = no interception.
type Hooks struct {
	// WrapWriter wraps a freshly opened file. name is the file's base name
	// (e.g. "wal-00000001.log", "snapshot-00000072.snap.tmp").
	WrapWriter func(name string, f WritableFile) WritableFile
	// BeforeOp runs before a metadata operation; returning an error aborts
	// it. op is one of "create", "append", "rename", "remove", "truncate",
	// "syncdir".
	BeforeOp func(op, name string) error
}

// persistFS funnels every filesystem touch of the persistence layer
// through the hooks.
type persistFS struct {
	hooks Hooks
}

func (fs persistFS) before(op, path string) error {
	if fs.hooks.BeforeOp == nil {
		return nil
	}
	if err := fs.hooks.BeforeOp(op, filepath.Base(path)); err != nil {
		return fmt.Errorf("%s %s: %w", op, filepath.Base(path), err)
	}
	return nil
}

func (fs persistFS) wrap(path string, f WritableFile) WritableFile {
	if fs.hooks.WrapWriter == nil {
		return f
	}
	return fs.hooks.WrapWriter(filepath.Base(path), f)
}

// create opens path fresh (truncating any leftover).
func (fs persistFS) create(path string) (WritableFile, error) {
	if err := fs.before("create", path); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return fs.wrap(path, f), nil
}

// appendTo opens an existing file for appending.
func (fs persistFS) appendTo(path string) (WritableFile, error) {
	if err := fs.before("append", path); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return fs.wrap(path, f), nil
}

func (fs persistFS) rename(oldPath, newPath string) error {
	if err := fs.before("rename", newPath); err != nil {
		return err
	}
	return os.Rename(oldPath, newPath)
}

func (fs persistFS) remove(path string) error {
	if err := fs.before("remove", path); err != nil {
		return err
	}
	return os.Remove(path)
}

// syncDir fsyncs a directory, making the creations, removals, and renames
// inside it durable. File-data fsyncs alone do not cover directory
// entries: without this, a power loss can keep a WAL prune while dropping
// the snapshot rename (or a synced segment's entry) that justified it.
func (fs persistFS) syncDir(dir string) error {
	if err := fs.before("syncdir", dir); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func (fs persistFS) truncate(path string, size int64) error {
	if err := fs.before("truncate", path); err != nil {
		return err
	}
	return os.Truncate(path, size)
}

// dirFile is one numbered artifact of a data directory, its name
// <prefix>[shard<k>-]<number><suffix> parsed.
type dirFile struct {
	path  string
	shard int   // noShard, badName, or the k of a shard<k>- part
	num   int64 // WAL sequence number, or snapshot/manifest day
}

const (
	noShard = -1 // the name is <prefix><number><suffix>
	badName = -2 // prefix and suffix match, what is between does not parse
)

// listDir is the one directory scanner: every file of dir whose name has
// the prefix and the suffix, parsed, ascending by number. Unparseable
// names come back too (badName), so a caller can refuse what it cannot
// account for. Temporary files (<name>.tmp) never carry the suffix.
func listDir(dir, prefix, suffix string) ([]dirFile, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []dirFile
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || len(name) < len(prefix)+len(suffix) || !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		f := dirFile{path: filepath.Join(dir, name), shard: noShard}
		mid := name[len(prefix) : len(name)-len(suffix)]
		if rest, ok := strings.CutPrefix(mid, "shard"); ok {
			var k string
			k, mid, _ = strings.Cut(rest, "-")
			if f.shard, err = strconv.Atoi(k); err != nil || f.shard < 0 {
				f.shard = badName
			}
		}
		if f.num, err = strconv.ParseInt(mid, 10, 64); err != nil {
			f.shard = badName
		}
		out = append(out, f)
	}
	slices.SortFunc(out, func(a, b dirFile) int { return cmp.Compare(a.num, b.num) })
	return out, nil
}

// listStream returns the files named exactly <prefix><number><suffix> —
// one shard's segment or snapshot stream when the prefix carries the
// shard part, the manifests, or the unsharded layout's files — ascending.
func listStream(dir, prefix, suffix string) ([]dirFile, error) {
	all, err := listDir(dir, prefix, suffix)
	return slices.DeleteFunc(all, func(f dirFile) bool { return f.shard != noShard }), err
}

// FsyncPolicy says when the WAL fsyncs.
type FsyncPolicy int

const (
	// FsyncClose (default) syncs at day-close barriers and before
	// snapshots: a crash can lose events of the open day the log had not
	// yet synced, never a closed one. This matches the recovery contract — ranked output only
	// depends on closed days.
	FsyncClose FsyncPolicy = iota
	// FsyncAlways syncs after every appended record.
	FsyncAlways
	// FsyncNever leaves flushing to the OS (sync only on shutdown).
	FsyncNever
)

// ParseFsyncPolicy parses "close", "always", or "never".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "close":
		return FsyncClose, nil
	case "always":
		return FsyncAlways, nil
	case "never":
		return FsyncNever, nil
	default:
		return 0, fmt.Errorf("serve: unknown fsync policy %q (want close, always, or never)", s)
	}
}

// String implements fmt.Stringer.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncClose:
		return "close"
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	default:
		return fmt.Sprintf("FsyncPolicy(%d)", int(p))
	}
}
