package cluster

import (
	"context"
	"time"

	"exactppr/internal/core"
	"exactppr/internal/sparse"
)

// PackedQuerier is any in-process query engine that drains its share in
// packed columnar form: a core.Store or core.DiskStore holding one
// machine's slice (from core.Split, core.LoadShard or core.SplitDisk),
// which answers that slice's additive share, or a whole store acting as
// a one-machine cluster. LocalMachine adapts it to the Machine
// interface so every backend rides the same coordinator, wire protocol,
// and gateway.
type PackedQuerier interface {
	QueryPacked(u int32) (sparse.Packed, error)
	QuerySetPacked(p core.Preference) (sparse.Packed, error)
}

// LocalMachine is an in-process Machine over any PackedQuerier. Shares
// are encoded even in-process so byte accounting matches what a network
// transport would carry; the packed drain makes that a straight
// sequential copy.
type LocalMachine struct {
	Backend PackedQuerier
}

// QueryShare implements Machine.
func (m *LocalMachine) QueryShare(ctx context.Context, u int32) ([]byte, time.Duration, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	v, err := m.Backend.QueryPacked(u)
	if err != nil {
		return nil, 0, err
	}
	return sparse.EncodePacked(v), time.Since(start), nil
}

// QuerySetShare implements Machine for preference sets.
func (m *LocalMachine) QuerySetShare(ctx context.Context, p core.Preference) ([]byte, time.Duration, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	v, err := m.Backend.QuerySetPacked(p)
	if err != nil {
		return nil, 0, err
	}
	return sparse.EncodePacked(v), time.Since(start), nil
}

// backend implements backedMachine.
func (m *LocalMachine) backend() PackedQuerier { return m.Backend }

// DiskCluster is a Coordinator over in-process disk slices: the
// single-host serving setup for pre-computations larger than memory.
// All slices share the store's memory map, so concurrent HTTP traffic
// through a gateway exercises the zero-copy path end to end. Its DiskStats method feeds the gateway's /stats.
type DiskCluster struct {
	*Coordinator
	ds *core.DiskStore
}

// NewDiskLocalCluster splits a disk store across n in-process machines
// behind a coordinator.
func NewDiskLocalCluster(ds *core.DiskStore, n int) (*DiskCluster, error) {
	shards, err := core.SplitDisk(ds, n)
	if err != nil {
		return nil, err
	}
	machines := make([]Machine, n)
	for i, sh := range shards {
		machines[i] = &LocalMachine{Backend: sh}
	}
	coord, err := NewCoordinator(machines...)
	if err != nil {
		return nil, err
	}
	return &DiskCluster{Coordinator: coord, ds: ds}, nil
}

// DiskStats exposes the underlying store's serving counters (records
// read, mmap or in-memory copy) for /stats.
func (c *DiskCluster) DiskStats() core.DiskStats { return c.ds.Stats() }

// Store returns the shared disk store (e.g. to Close it on shutdown).
func (c *DiskCluster) Store() *core.DiskStore { return c.ds }
