// Package store is faserve's persistent result store: a content-addressed
// blob store under the server data directory. Completed jobs deposit their
// final injection log and rendered report here and reference them by
// SHA-256, so identical campaign outputs (the common case for repeated
// jobs over a deterministic workload) are stored once, results survive
// server restarts, and a corrupted object is detected on read instead of
// being served.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
)

// Store is a content-addressed object store rooted at one directory.
// All methods are safe for concurrent use: objects are immutable once
// written, and writes go through a unique temp file plus an atomic rename.
type Store struct {
	dir string
}

// Open creates (if needed) and opens the store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Sum returns the content address of data: the lowercase hex SHA-256.
func Sum(data []byte) string {
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}

// objectPath fans objects out over 256 prefix directories to keep any one
// directory small.
func (s *Store) objectPath(sum string) (string, error) {
	if len(sum) != 2*sha256.Size {
		return "", fmt.Errorf("store: malformed address %q", sum)
	}
	return filepath.Join(s.dir, "objects", sum[:2], sum[2:]), nil
}

// Put stores data and returns its address. Storing bytes that are already
// present is a cheap no-op — the store is deduplicating by construction.
func (s *Store) Put(data []byte) (string, error) {
	sum := Sum(data)
	path, err := s.objectPath(sum)
	if err != nil {
		return "", err
	}
	if _, err := os.Stat(path); err == nil {
		return sum, nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	// Concurrent Puts of the same bytes race benignly: both temp files
	// hold identical content and rename is atomic, so last-writer-wins
	// leaves the object intact.
	if err := WriteFileAtomic(path, data); err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	return sum, nil
}

// WriteFileAtomic writes data to path so that a crash leaves either the
// old file or the new one, never a torn one: it writes a temp file in
// path's directory, syncs and closes it, and renames it into place. The
// temp file is removed on any failure.
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// Get returns the object at sum, verifying its content against the
// address so on-disk corruption surfaces as an error, never as wrong
// bytes.
func (s *Store) Get(sum string) ([]byte, error) {
	path, err := s.objectPath(sum)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: object %s: %w", sum, err)
	}
	if got := Sum(data); got != sum {
		return nil, fmt.Errorf("store: object %s is corrupt (content hashes to %s)", sum, got)
	}
	return data, nil
}

// Has reports whether the object at sum is present (without verifying it).
func (s *Store) Has(sum string) bool {
	path, err := s.objectPath(sum)
	if err != nil {
		return false
	}
	_, err = os.Stat(path)
	return err == nil
}

// Sweep walks every object and removes those keep rejects, returning the
// kept/removed counts and the bytes reclaimed. With dryRun set nothing is
// deleted: the counts and byte total report what a real sweep would
// reclaim. Stray temp files from interrupted Puts are skipped (an
// in-flight Put may still rename its temp file into place). The caller is
// responsible for quiescence: Sweep must not race new references being
// created.
func (s *Store) Sweep(keep func(sum string) bool, dryRun bool) (kept, removed int, reclaimed int64, err error) {
	objects := filepath.Join(s.dir, "objects")
	prefixes, err := os.ReadDir(objects)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("store: sweep: %w", err)
	}
	for _, p := range prefixes {
		if !p.IsDir() || len(p.Name()) != 2 {
			continue
		}
		dir := filepath.Join(objects, p.Name())
		entries, err := os.ReadDir(dir)
		if err != nil {
			return kept, removed, reclaimed, fmt.Errorf("store: sweep: %w", err)
		}
		for _, e := range entries {
			sum := p.Name() + e.Name()
			if len(sum) != 2*sha256.Size {
				continue // temp file or foreign debris
			}
			if keep(sum) {
				kept++
				continue
			}
			info, err := e.Info()
			if err != nil {
				return kept, removed, reclaimed, fmt.Errorf("store: sweep: %w", err)
			}
			if !dryRun {
				if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
					return kept, removed, reclaimed, fmt.Errorf("store: sweep: %w", err)
				}
			}
			removed++
			reclaimed += info.Size()
		}
	}
	return kept, removed, reclaimed, nil
}
