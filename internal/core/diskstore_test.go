package core

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"exactppr/internal/hierarchy"
	"exactppr/internal/sparse"
)

func diskStoreFixture(t *testing.T) (*Store, *DiskStore) {
	t.Helper()
	return diskStoreFixtureWith(t, DiskOptions{})
}

func diskStoreFixtureWith(t *testing.T, opts DiskOptions) (*Store, *DiskStore) {
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
	ds, err := OpenDiskStoreWith(path, opts)
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

func TestDiskStoreTinyCache(t *testing.T) {
	s, ds := diskStoreFixtureWith(t, DiskOptions{CacheCap: 2}) // constant eviction
	for _, u := range []int32{0, 50, 100, 150, 0, 50} {
		want, err := s.Query(u)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ds.Query(u)
		if err != nil {
			t.Fatal(err)
		}
		if d := sparse.LInfDistance(got, want); d != 0 {
			t.Fatalf("u=%d with tiny cache: %v", u, d)
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
// (not a raw *os.File error), and Close is idempotent.
func TestDiskStoreCloseTyped(t *testing.T) {
	_, ds := diskStoreFixtureWith(t, DiskOptions{CacheCap: 1}) // queries must hit the file
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	_, err := ds.Query(0)
	if !errors.Is(err, ErrStoreClosed) {
		t.Fatalf("post-close Query error = %v, want ErrStoreClosed", err)
	}
}

// TestDiskStoreMmapOffFallback: with mapping disabled the store serves
// through the legacy ReadAt path — Stats reports it, and answers stay
// bit-identical to the in-memory store.
func TestDiskStoreMmapOffFallback(t *testing.T) {
	g := testGraph(t, 61)
	s, err := BuildHGPA(g, hierarchy.Options{Seed: 62}, tightParams(), 2)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "s.store")
	if err := SaveFile(path, s); err != nil {
		t.Fatal(err)
	}
	ds, err := OpenDiskStoreWith(path, DiskOptions{DisableMmap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if ds.Stats().Mmap {
		t.Fatal("DisableMmap did not disable the mapping")
	}
	for _, u := range sampleQueries(s) {
		want, err := s.Query(u)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ds.Query(u)
		if err != nil {
			t.Fatal(err)
		}
		if d := sparse.LInfDistance(got, want); d != 0 {
			t.Fatalf("u=%d on fallback path: %v", u, d)
		}
	}
	if st := ds.Stats(); st.Reads == 0 {
		t.Fatal("fallback path recorded no reads")
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

// TestDiskStoreMissStormCoalesces: a burst of concurrent queries for the
// same node on a cold cache issues exactly as many reads as one query
// would — the singleflight guarantee, observed end to end.
func TestDiskStoreMissStormCoalesces(t *testing.T) {
	s, ds := diskStoreFixture(t)
	u := sampleQueries(s)[0]

	// Reference: the read count of a single cold query on a fresh store.
	path := filepath.Join(t.TempDir(), "ref.store")
	if err := SaveFile(path, s); err != nil {
		t.Fatal(err)
	}
	ref, err := OpenDiskStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if _, err := ref.Query(u); err != nil {
		t.Fatal(err)
	}
	coldReads := ref.Stats().Reads

	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := ds.Query(u); err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
	st := ds.Stats()
	if st.Reads != coldReads {
		t.Fatalf("32-query miss storm did %d reads, want %d (one per distinct vector)", st.Reads, coldReads)
	}
}

// TestDiskStoreCloseRace: Close landing in the middle of a storm of
// concurrent queries must never surface an os-level "file already
// closed" error (or, in mmap mode, a fault on an unmapped view) —
// in-flight reads drain, later ones get ErrStoreClosed.
// Run under -race in CI.
func TestDiskStoreCloseRace(t *testing.T) {
	s, ds := diskStoreFixtureWith(t, DiskOptions{CacheCap: 1}) // every fetch hits the file
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
		t.Fatalf("query during Close: %v", err)
	default:
	}
}
