// Package mmapfile memory-maps read-only files. It exists for the
// disk-resident serving store: mapping the store file lets the OS page
// cache hold hot vectors and lets the query path alias vector payloads
// in place instead of copying them into heap buffers.
//
// On platforms without mmap support (or when a map fails at runtime —
// e.g. a filesystem that refuses MAP_SHARED) Map returns an error and
// callers fall back to reading the whole file into memory; nothing here
// is load-bearing for correctness, only for speed.
package mmapfile

import (
	"fmt"
	"os"
)

// Map maps the whole of f read-only. The returned bytes stay valid until
// Unmap; they must never be written.
func Map(f *os.File) ([]byte, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size <= 0 {
		return nil, fmt.Errorf("mmapfile: cannot map %d-byte file", size)
	}
	if size != int64(int(size)) {
		return nil, fmt.Errorf("mmapfile: file too large to map (%d bytes)", size)
	}
	return mapFile(f, int(size))
}

// Unmap releases a mapping returned by Map. Passing nil is a no-op.
func Unmap(b []byte) error {
	if b == nil {
		return nil
	}
	return unmapFile(b)
}
