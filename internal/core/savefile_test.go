package core

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime/debug"
	"testing"

	"exactppr/internal/hierarchy"
	"exactppr/internal/sparse"
)

// TestSaveFileReplacesOpenStore: saving a different store over the path
// of a mapped DiskStore leaves the open store serving the file it
// opened — every node answers its pre-save bytes — and a fresh open
// serves the new store. Truncating the mapped file in place would make
// the old mapping read the new bytes or fault (SIGBUS), which
// SetPanicOnFault turns into a test failure.
func TestSaveFileReplacesOpenStore(t *testing.T) {
	old, ds := diskStoreFixture(t)
	path := filepath.Join(t.TempDir(), "s.store")
	if err := SaveFile(path, old); err != nil {
		t.Fatal(err)
	}
	ds.Close()
	ds, err := OpenDiskStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	n := int32(old.H.G.NumNodes())
	before := make([][]byte, n)
	for u := range n {
		v, err := ds.QueryPacked(u)
		if err != nil {
			t.Fatal(err)
		}
		before[u] = sparse.EncodePacked(v)
	}

	next, err := BuildHGPA(testGraph(t, 61), hierarchy.Options{Seed: 61}, tightParams(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveFile(path, next); err != nil {
		t.Fatal(err)
	}

	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("the open store faulted after the save: %v", r)
			}
		}()
		for u := range n {
			v, err := ds.QueryPacked(u)
			if err != nil || !bytes.Equal(sparse.EncodePacked(v), before[u]) {
				t.Fatalf("node %d: the open store answers differently after the save (err %v)", u, err)
			}
		}
	}()

	fresh, err := OpenDiskStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	for u := range int32(next.H.G.NumNodes()) {
		want, err := next.QueryPacked(u)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fresh.QueryPacked(u)
		if err != nil || !bytes.Equal(sparse.EncodePacked(got), sparse.EncodePacked(want)) {
			t.Fatalf("node %d: a fresh open does not serve the saved store (err %v)", u, err)
		}
	}
}

// TestSaveFileFailureKeepsOldFile: a save that fails — here of a
// shard-local store, which Save refuses — leaves the file at the path
// byte-identical and no temporary file beside it.
func TestSaveFileFailureKeepsOldFile(t *testing.T) {
	s, ds := diskStoreFixture(t)
	ds.Close()
	dir := t.TempDir()
	path := filepath.Join(dir, "s.store")
	if err := SaveFile(path, s); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := Split(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveFile(path, shards[0]); err == nil {
		t.Fatal("saving a shard-local store succeeded")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("the failed save changed the file: %d bytes, had %d", len(got), len(want))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("the directory holds %q after the failed save, want only s.store", names)
	}
}

// TestSaveFileKeepsModeAndLink: saving over a path keeps the replaced
// file's permission bits, and a symlink at the path keeps pointing at
// the file it names, which now holds the new store — as writing the
// file in place did.
func TestSaveFileKeepsModeAndLink(t *testing.T) {
	s, ds := diskStoreFixture(t)
	ds.Close()
	dir := t.TempDir()
	target, link := filepath.Join(dir, "s.store"), filepath.Join(dir, "current.store")
	if err := os.WriteFile(target, []byte("old"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(target, 0o640); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink("s.store", link); err != nil {
		t.Skipf("no symlinks here: %v", err)
	}
	if err := SaveFile(link, s); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Lstat(link); err != nil || fi.Mode()&os.ModeSymlink == 0 {
		t.Fatalf("the save replaced the symlink (err %v)", err)
	}
	fi, err := os.Stat(target)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o640 {
		t.Errorf("the saved file has mode %v, want the replaced file's -rw-r-----", fi.Mode().Perm())
	}
	got, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, savedBytes(t, s)) {
		t.Errorf("the file the symlink names does not hold the saved store")
	}
}
