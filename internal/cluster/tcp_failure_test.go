package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"exactppr/internal/core"
)

// TestOversizedFrameRejected: the frame-length guard protects the worker
// from corrupt or malicious length prefixes.
func TestOversizedFrameRejected(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	go func() {
		var hdr [frameHeaderSize]byte
		hdr[0] = opQuery
		binary.LittleEndian.PutUint32(hdr[9:], uint32(maxFrame+1))
		client.Write(hdr[:])
	}()
	if _, _, _, err := readFrame(server); err == nil {
		t.Fatal("oversized frame must be rejected")
	}
}

// TestTruncatedFrameAllocatesLittle: a header announcing a large
// payload that never arrives fails without allocating the announced
// size, so a peer cannot pin 256 MiB per frame with 13 bytes.
func TestTruncatedFrameAllocatesLittle(t *testing.T) {
	frame := make([]byte, frameHeaderSize+10)
	frame[0] = opUpdate
	binary.LittleEndian.PutUint32(frame[9:], maxFrame)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err := readFrame(bytes.NewReader(frame))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want unexpected EOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4*frameChunk {
		t.Fatalf("truncated frame allocated %d bytes", got)
	}
}

// TestWorkerDropsMalformedRequest: a garbage opcode terminates the
// connection (opError then close) without crashing the worker loop.
func TestWorkerDropsMalformedRequest(t *testing.T) {
	s := testStore(t)
	shards, _ := core_Split(t, s)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go (&Server{Machine: &LocalMachine{Backend: shards[0]}}).Serve(l)

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, 99, 7, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	op, id, _, err := readFrame(conn)
	if err != nil {
		t.Fatalf("expected an error frame, got %v", err)
	}
	if op != opError || id != 7 {
		t.Fatalf("op = %d id = %d, want opError echoing id 7", op, id)
	}
	// The worker then closes; the NEXT worker connection must still work.
	m, err := DialPool(l.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, _, err := m.QueryShare(context.Background(), 1); err != nil {
		t.Fatalf("listener should survive a bad client: %v", err)
	}
}

// TestCoordinatorPropagatesDeadMachine: a machine whose connection died
// turns into a clean coordinator error, not a hang.
func TestCoordinatorPropagatesDeadMachine(t *testing.T) {
	s := testStore(t)
	shards, _ := core_Split(t, s)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go (&Server{Machine: &LocalMachine{Backend: shards[0]}}).Serve(l)
	m, err := DialPool(l.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCoordinator(m)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	m.Close() // kill the transport under the coordinator
	if _, err := c.Query(1); err == nil {
		t.Fatal("dead machine must surface as an error")
	}
}

func core_Split(t *testing.T, s *core.Store) ([]*core.Store, error) {
	t.Helper()
	shards, err := core.Split(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	return shards, nil
}
