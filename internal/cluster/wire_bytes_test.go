package cluster

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"exactppr/internal/core"
	"exactppr/internal/gen"
	"exactppr/internal/hierarchy"
	"exactppr/internal/ppr"
	"exactppr/internal/sparse"
)

// shareBytesCeiling bounds the mean share payload bytes per query on the
// serving fixture (web×1, seed 1, hierarchy seed 1, α=0.15, ε=1e-4,
// split over 2 machines), summed over both machines, every node
// queried. It is a deterministic count: the store build is
// deterministic and the wire size depends only on the shares' ids.
// The fixed-width encoding this replaced read 2,717.2 bytes.
const shareBytesCeiling = 2056

// TestShareBytesPerQuery pins the communication cost per query — the
// paper's KB-per-query metric, counted as QueryStats.BytesReceived —
// under a ceiling a change may lower but not raise unnoticed.
func TestShareBytesPerQuery(t *testing.T) {
	g, err := gen.Dataset("web", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.BuildHGPA(g, hierarchy.Options{Seed: 1}, ppr.Params{Alpha: 0.15, Eps: 1e-4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewLocalCluster(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	var total int64
	for u := range int32(n) {
		qs, err := c.QueryCtx(context.Background(), u)
		if err != nil {
			t.Fatalf("u=%d: %v", u, err)
		}
		total += qs.BytesReceived
	}
	mean := float64(total) / float64(n)
	t.Logf("%d nodes: %.1f share bytes per query", n, mean)
	if mean > shareBytesCeiling {
		t.Fatalf("%.1f share bytes per query over %d nodes, ceiling %d", mean, n, shareBytesCeiling)
	}
}

// shareMachine is a Machine that answers every query with one fixed
// payload, as a faulty or hostile worker might.
type shareMachine struct{ payload []byte }

func (m shareMachine) QueryShare(context.Context, int32) ([]byte, time.Duration, error) {
	return m.payload, 0, nil
}

func (m shareMachine) QuerySetShare(context.Context, core.Preference) ([]byte, time.Duration, error) {
	return m.payload, 0, nil
}

// TestMalformedShareFailsTyped: a share carrying a NaN score fails the
// query with sparse.ErrMalformedShare instead of being served.
func TestMalformedShareFailsTyped(t *testing.T) {
	good := sparse.EncodePacked(sparse.Pack(sparse.Vector{1: 0.5}))
	bad := sparse.EncodePacked(sparse.Pack(sparse.Vector{2: math.NaN()}))
	c, err := NewCoordinator(shareMachine{good}, shareMachine{bad})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := c.QueryCtx(context.Background(), 0)
	if !errors.Is(err, sparse.ErrMalformedShare) {
		t.Fatalf("NaN share: got %v (result %v), want ErrMalformedShare", err, qs)
	}
}

// TestRetiredShareOpcode: a worker answering with the retired
// fixed-width share opcode fails the call loudly instead of having its
// payload read in the compact format.
func TestRetiredShareOpcode(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		_, id, _, err := readFrame(conn)
		if err != nil {
			return
		}
		var b bytes.Buffer
		writeFrame(&b, 2, id, make([]byte, 8+4)) // an empty share, as op 2 carried it
		conn.Write(b.Bytes())
		readFrame(conn) // hold the connection until the client closes it
	}()
	p, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	_, _, err = p.QueryShare(context.Background(), 0)
	if err == nil || !strings.Contains(err.Error(), "unexpected opcode 2") {
		t.Fatalf("op 2 reply: got %v, want an unexpected-opcode error", err)
	}
}
