package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"exactppr/internal/hierarchy"
	"exactppr/internal/sparse"
)

func diskStoreFixture(t *testing.T) (*Store, *DiskStore) {
	t.Helper()
	return diskStoreFixtureFrom(t, true)
}

// diskStoreFixtureFrom opens the fixture store mapped, or read into
// memory when mapped is false.
func diskStoreFixtureFrom(t *testing.T, mapped bool) (*Store, *DiskStore) {
	t.Helper()
	g := testGraph(t, 60)
	s, err := BuildHGPA(g, hierarchy.Options{Seed: 60}, tightParams(), 2)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "s.store")
	if err := SaveFile(path, s); err != nil {
		t.Fatal(err)
	}
	ds, err := openDiskStore(path, mapped)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	return s, ds
}

func TestDiskStoreMatchesMemory(t *testing.T) {
	s, ds := diskStoreFixture(t)
	queries := sampleQueries(s)
	for _, u := range queries {
		want, err := s.Query(u)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ds.Query(u)
		if err != nil {
			t.Fatal(err)
		}
		if d := sparse.LInfDistance(got, want); d != 0 {
			t.Fatalf("u=%d: disk store differs by %v", u, d)
		}
	}
}

func TestDiskStoreConcurrent(t *testing.T) {
	s, ds := diskStoreFixture(t)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(u int32) {
			defer wg.Done()
			got, err := ds.Query(u)
			if err != nil {
				errs <- err
				return
			}
			want, err := s.Query(u)
			if err != nil {
				errs <- err
				return
			}
			if sparse.LInfDistance(got, want) != 0 {
				errs <- &mismatchError{u}
			}
		}(int32(i * 20))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type mismatchError struct{ u int32 }

func (e *mismatchError) Error() string { return "concurrent disk query mismatch" }

func TestDiskStoreErrors(t *testing.T) {
	_, ds := diskStoreFixture(t)
	if _, err := ds.Query(-1); err == nil {
		t.Fatal("bad query should fail")
	}
	if _, err := OpenDiskStore(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("missing file should fail")
	}
}

func TestDiskStoreRejectsGarbageFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.store")
	if err := writeFileHelper(path, []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDiskStore(path); err == nil {
		t.Fatal("garbage file should fail")
	}
}

func writeFileHelper(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// TestDiskStoreCloseTyped: queries after Close fail with ErrStoreClosed
// (not a raw *os.File error), and Close is idempotent, from either byte
// source.
func TestDiskStoreCloseTyped(t *testing.T) {
	for _, mapped := range []bool{true, false} {
		_, ds := diskStoreFixtureFrom(t, mapped)
		if err := ds.Close(); err != nil {
			t.Fatal(err)
		}
		if err := ds.Close(); err != nil {
			t.Fatalf("mapped=%v: second Close: %v", mapped, err)
		}
		_, err := ds.Query(0)
		if !errors.Is(err, ErrStoreClosed) {
			t.Fatalf("mapped=%v: post-close Query error = %v, want ErrStoreClosed", mapped, err)
		}
	}
}

// TestDiskStoreMmapOffFallback: the mapped file and the copy read into
// memory — the byte source where mapping is unsupported or fails —
// serve byte-identical shares for every node, on the whole store and on
// each slice of a 2-way split, and Stats reports which source is in use.
func TestDiskStoreMmapOffFallback(t *testing.T) {
	s, _ := diskStoreFixture(t)
	path := filepath.Join(t.TempDir(), "s.store")
	if err := SaveFile(path, s); err != nil {
		t.Fatal(err)
	}
	n := int32(s.H.G.NumNodes())
	var shares [2][][]byte // per source: every node's share, whole store then each slice
	for i, mapped := range []bool{true, false} {
		ds, err := openDiskStore(path, mapped)
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		if ds.Stats().Mmap != mapped {
			t.Fatalf("opened with mapped=%v, Stats().Mmap = %v", mapped, ds.Stats().Mmap)
		}
		slices, err := SplitDisk(ds, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, view := range append([]*DiskStore{ds}, slices...) {
			for u := range n {
				p, err := view.QueryPacked(u)
				if err != nil {
					t.Fatalf("mapped=%v u=%d: %v", mapped, u, err)
				}
				shares[i] = append(shares[i], sparse.EncodePacked(p))
			}
		}
		if ds.Stats().Reads == 0 {
			t.Fatalf("mapped=%v: no reads recorded", mapped)
		}
	}
	for k := range shares[0] {
		if !bytes.Equal(shares[0][k], shares[1][k]) {
			t.Fatalf("share %d (view %d, node %d): mapped and in-memory bytes differ", k, k/int(n), k%int(n))
		}
	}
}

// TestDiskStoreChecksEveryFetch: nothing is cached, so a plan row that
// names an out-of-range hub fails every query of its node — the first
// and a repeat alike, the same way from either byte source — and never
// as a caller's mistake.
func TestDiskStoreChecksEveryFetch(t *testing.T) {
	s, ds := diskStoreFixture(t)
	u := int32(-1)
	for v := range int32(s.H.G.NumNodes()) {
		if sp, ok := ds.span(secHubPlan, v); ok && sp.entries() > 0 && (u < 0 || v < u) {
			u = v
		}
	}
	if u < 0 {
		t.Fatal("fixture has no non-empty plan row")
	}
	data := savedBytes(t, s) // the bytes ds was opened from
	sp, _ := ds.span(secHubPlan, u)
	binary.LittleEndian.PutUint32(data[sp.off+8:], uint32(s.H.G.NumNodes()))
	path := filepath.Join(t.TempDir(), "bad.store")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var first error
	for _, mapped := range []bool{true, false} {
		bad, err := openDiskStore(path, mapped)
		if err != nil {
			t.Fatal(err)
		}
		defer bad.Close()
		for try := range 2 {
			_, err := bad.QueryPacked(u)
			if first == nil {
				first = err
			}
			if err == nil || err.Error() != first.Error() || errors.Is(err, ErrNodeOutOfRange) || errors.Is(err, ErrMissingVector) {
				t.Fatalf("mapped=%v query %d of u=%d: err = %v, want %v", mapped, try+1, u, err, first)
			}
		}
	}
	if !strings.Contains(first.Error(), "out-of-range hub") {
		t.Fatalf("u=%d: err = %v, want an out-of-range hub", u, first)
	}
}

// TestDiskStoreRejectsTruncatedFile: opening a torn store file — cut
// anywhere, including inside the trailing plan section — fails cleanly
// instead of indexing spans past EOF.
func TestDiskStoreRejectsTruncatedFile(t *testing.T) {
	s, _ := diskStoreFixture(t)
	dir := t.TempDir()
	full := filepath.Join(dir, "full.store")
	if err := SaveFile(full, s); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{0.2, 0.5, 0.9, 0.999} {
		cut := int(float64(len(data)) * frac)
		torn := filepath.Join(dir, "torn.store")
		if err := os.WriteFile(torn, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if ds, err := OpenDiskStore(torn); err == nil {
			ds.Close()
			t.Fatalf("opened a file truncated to %d/%d bytes", cut, len(data))
		}
	}
}

// TestDiskStoreCloseWaitsForFold: Close must block until an in-flight
// query — whose accumulator fold reads vector views aliasing the memory
// map — has drained; the query completes with a correct answer, never a
// fault or a torn read.
func TestDiskStoreCloseWaitsForFold(t *testing.T) {
	s, ds := diskStoreFixture(t)
	queries := sampleQueries(s)
	type res struct {
		u   int32
		got sparse.Vector
		err error
	}
	results := make(chan res, len(queries)*4)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for r := 0; r < 4; r++ {
		for _, u := range queries {
			wg.Add(1)
			go func(u int32) {
				defer wg.Done()
				<-start
				got, err := ds.Query(u)
				results <- res{u, got, err}
			}(u)
		}
	}
	close(start)
	ds.Close() // races the queries; must wait for the in-flight folds
	wg.Wait()
	close(results)
	for r := range results {
		if r.err != nil {
			if errors.Is(r.err, ErrStoreClosed) {
				continue // arrived after Close won the lock — fine
			}
			t.Fatalf("u=%d: %v", r.u, r.err)
		}
		want, err := s.Query(r.u)
		if err != nil {
			t.Fatal(err)
		}
		if sparse.LInfDistance(r.got, want) != 0 {
			t.Fatalf("u=%d: fold overlapping Close returned a torn result", r.u)
		}
	}
}

// TestDiskStoreCloseRace: Close landing in the middle of a storm of
// concurrent queries must never surface an os-level "file already
// closed" error (or, in mmap mode, a fault on an unmapped view) —
// in-flight reads drain, later ones get ErrStoreClosed.
// Run under -race in CI.
func TestDiskStoreCloseRace(t *testing.T) {
	for _, mapped := range []bool{true, false} {
		closeRace(t, mapped)
	}
}

func closeRace(t *testing.T, mapped bool) {
	s, ds := diskStoreFixtureFrom(t, mapped)
	n := int32(s.H.G.NumNodes())
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	start := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int32) {
			defer wg.Done()
			<-start
			for i := int32(0); i < 200; i++ {
				_, err := ds.Query((seed*31 + i) % n)
				if err != nil && !errors.Is(err, ErrStoreClosed) {
					errCh <- err
					return
				}
			}
		}(int32(w))
	}
	close(start)
	ds.Close()
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("mapped=%v: query during Close: %v", mapped, err)
	default:
	}
}
