package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
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
	m, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, _, err := m.QueryShare(context.Background(), 1); err != nil {
		t.Fatalf("listener should survive a bad client: %v", err)
	}
}

// TestCoordinatorPropagatesDeadMachine: a dead machine (an in-process
// machine that fails every call, a TCP worker whose connection is closed
// and whose address refuses re-dials) turns into a clean coordinator
// error, not a hang.
func TestCoordinatorPropagatesDeadMachine(t *testing.T) {
	s := testStore(t)
	shards, _ := core_Split(t, s)
	dead := map[string]func(t *testing.T) Machine{
		"in-process": func(t *testing.T) Machine {
			d := &dyingMachine{dead: make(chan struct{})}
			close(d.dead)
			return d
		},
		"tcp": func(t *testing.T) Machine {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go (&Server{Machine: &LocalMachine{Backend: shards[0]}}).Serve(l)
			m, err := Dial(l.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			l.Close()
			m.Close() // kill the transport under the coordinator
			return m
		},
	}
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			c, err := NewCoordinator(dead[tr.name](t))
			if err != nil {
				t.Fatal(err)
			}
			errc := make(chan error, 1)
			go func() {
				_, err := c.Query(1)
				errc <- err
			}()
			select {
			case err = <-errc:
			case <-time.After(10 * time.Second):
				t.Fatal("query hung on a dead machine")
			}
			if err == nil || !strings.Contains(err.Error(), "machine 0:") {
				t.Fatalf("err = %v, want the dead machine's error tagged with machine 0", err)
			}
		})
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
