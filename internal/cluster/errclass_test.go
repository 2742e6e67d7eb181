package cluster

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"testing/iotest"
	"time"

	"exactppr/internal/core"
	"exactppr/internal/graph"
	"exactppr/internal/sparse"
)

// classifiedGateways serves the same two-shard updatable cluster through
// two gateways: one over in-process machines and one over TCP workers.
func classifiedGateways(t *testing.T) map[string]string {
	t.Helper()
	const n = 2
	local := make([]Machine, n)
	remote := make([]Machine, n)
	for i := 0; i < n; i++ {
		for _, ms := range [][]Machine{local, remote} {
			live, err := NewLiveShard(core.NewLiveStore(testStore(t)), i, n)
			if err != nil {
				t.Fatal(err)
			}
			ms[i] = live
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		live := remote[i].(*LiveShard)
		go (&Server{Machine: live, Updater: live}).Serve(l)
		p, err := Dial(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		remote[i] = p
	}
	urls := map[string]string{}
	for name, ms := range map[string][]Machine{"in-process": local, "tcp": remote} {
		c, err := NewCoordinator(ms...)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(NewGateway(c).Handler())
		t.Cleanup(srv.Close)
		urls[name] = srv.URL
	}
	return urls
}

// TestGatewayErrorClasses: the gateway picks a failed request's status
// from the error's class, so a TCP cluster answers exactly as an
// in-process one: a missing node is 404, a malformed preference set or
// delta edge is 400.
func TestGatewayErrorClasses(t *testing.T) {
	for name, url := range classifiedGateways(t) {
		t.Run(name, func(t *testing.T) {
			var res resultJSON
			getJSON(t, url+"/ppv/99999", http.StatusNotFound, &res)
			if res.Error == "" {
				t.Fatal("missing error text in 404 body")
			}
			// A duplicate node is the client's mistake, not a broken
			// cluster: 400, not 502.
			postJSON(t, url+"/ppv", map[string]any{"nodes": []int32{1, 1}, "set": true}, http.StatusBadRequest, &res)
			postJSON(t, url+"/ppv", map[string]any{"nodes": []int32{1, 99999}, "set": true}, http.StatusNotFound, &res)
			var e map[string]string
			postJSON(t, url+"/edges", map[string]any{"insert": [][2]int32{{0, 99999}}}, http.StatusBadRequest, &e)
		})
	}
}

// failMachine answers every query with one fixed error.
type failMachine struct{ err error }

func (m failMachine) QueryShare(context.Context, int32) ([]byte, time.Duration, error) {
	return nil, 0, m.err
}

func (m failMachine) QuerySetShare(context.Context, core.Preference) ([]byte, time.Duration, error) {
	return nil, 0, m.err
}

// TestGatewayUnclassifiedErrorIs502: a machine error is classified by
// its type, never its text. One that merely mentions "out of range" is
// a broken cluster (502), not a missing node (404).
func TestGatewayUnclassifiedErrorIs502(t *testing.T) {
	broken := failMachine{errors.New("disk read at offset 1<<40: out of range")}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go (&Server{Machine: broken}).Serve(l)
	p, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for name, m := range map[string]Machine{"in-process": broken, "tcp": p} {
		t.Run(name, func(t *testing.T) {
			c, err := NewCoordinator(m)
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(NewGateway(c).Handler())
			defer srv.Close()
			var res resultJSON
			getJSON(t, srv.URL+"/ppv/1", http.StatusBadGateway, &res)
			postJSON(t, srv.URL+"/ppv", map[string]any{"nodes": []int32{1, 2}, "set": true}, http.StatusBadGateway, &res)
		})
	}
}

// TestErrorClassRoundTrip: an opError payload carries each sentinel's
// class; the decoded error unwraps to the same sentinel and keeps the
// worker's text. Unclassified and unknown classes unwrap to nothing.
func TestErrorClassRoundTrip(t *testing.T) {
	for _, class := range errorClasses[1:] {
		sent := fmt.Errorf("wrapped: %w", class)
		got := decodeError(encodeError(sent))
		if !errors.Is(got, class) {
			t.Fatalf("%v: decoded %v lost its class", class, got)
		}
		if got.Error() != "cluster: worker: "+sent.Error() {
			t.Fatalf("decoded text %q", got.Error())
		}
	}
	plain := decodeError(encodeError(errors.New("node 5 out of range")))
	unknown := decodeError(append([]byte{200}, "from a newer worker"...))
	for _, err := range []error{plain, unknown} {
		for _, class := range errorClasses[1:] {
			if errors.Is(err, class) {
				t.Fatalf("%v classified as %v", err, class)
			}
		}
	}
	if err := decodeError(nil); err == nil || errors.Is(err, core.ErrNodeOutOfRange) {
		t.Fatalf("empty error frame decoded as %v", err)
	}
}

// TestReadOnlyBackendsTyped: an edge-delta batch sent to a read-only
// backend fails with ErrReadOnly, in-process and across TCP alike, and
// the gateway answers POST /edges with 501 on each.
func TestReadOnlyBackendsTyped(t *testing.T) {
	s, disk := testDiskCluster(t, 2)
	local, err := NewLocalCluster(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := core.Split(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	remote := make([]Machine, len(shards))
	for i, sh := range shards {
		addr, stop := startWorker(t, &LocalMachine{Backend: sh})
		t.Cleanup(stop)
		p, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		remote[i] = p
	}
	tcp, err := NewCoordinator(remote...)
	if err != nil {
		t.Fatal(err)
	}
	type backend interface {
		Querier
		Updater
	}
	d := graph.Delta{Insert: [][2]int32{{0, 1}}}
	for name, b := range map[string]backend{"disk": disk, "in-process": local, "tcp": tcp} {
		t.Run(name, func(t *testing.T) {
			_, err := b.ApplyUpdates(context.Background(), d)
			if !errors.Is(err, ErrReadOnly) {
				t.Fatalf("err = %v, want ErrReadOnly", err)
			}
			if got := queryErrorStatus(err); got != http.StatusNotImplemented {
				t.Fatalf("status %d for %v, want 501", got, err)
			}
			srv := httptest.NewServer(NewGateway(b).Handler())
			defer srv.Close()
			var e map[string]string
			postJSON(t, srv.URL+"/edges", map[string]any{"insert": [][2]int32{{0, 1}}}, http.StatusNotImplemented, &e)
		})
	}
}

// FuzzWireFrames runs arbitrary bytes through every decoder a worker or
// coordinator applies to a frame from the network: readFrame, then the
// preference decode, the share-reply decode (decodeReply, then
// DecodePacked), and the error-class byte. None may panic, and every
// share accepted must have strictly ascending ids. Reading through the
// connections' buffered reader, whole or one byte per Read, must decode
// the same first frame as the plain reader.
func FuzzWireFrames(f *testing.F) {
	frame := func(op byte, payload []byte) []byte {
		var b bytes.Buffer
		writeFrame(&b, op, 7, payload)
		return b.Bytes()
	}
	share := append(make([]byte, 8), sparse.EncodePacked(sparse.Pack(sparse.Vector{1: 0.5, 9: 0.25}))...)
	f.Add(frame(opQuerySet, encodePreference(core.Preference{Nodes: []int32{1, 5}, Weights: []float64{2, 1}})))
	f.Add(frame(opCompactShare, share))
	f.Add(frame(opError, encodeError(fmt.Errorf("x: %w", core.ErrBadPreference))))
	f.Add(frame(opError, nil))
	f.Add(frame(opUpdateAck, encodeUpdateStats(UpdateStats{Inserted: 1})))
	f.Add(frame(opQuery, []byte{1, 0, 0, 0})[:frameHeaderSize+2])
	// A header that announces far more payload than follows.
	long := frame(opCompactShare, nil)
	long[9], long[12] = 0xff, 0x0f
	f.Add(long)
	// Two frames back to back, as one buffered read delivers them.
	f.Add(append(frame(opQuery, []byte{1, 0, 0, 0}), frame(opCompactShare, share)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		op, id, payload, err := readFrame(bytes.NewReader(data))
		for name, r := range map[string]io.Reader{
			"buffered":          bufio.NewReaderSize(bytes.NewReader(data), readBufSize),
			"buffered one-byte": bufio.NewReaderSize(iotest.OneByteReader(bytes.NewReader(data)), readBufSize),
		} {
			bop, bid, bpayload, berr := readFrame(r)
			if (berr == nil) != (err == nil) || bop != op || bid != id || !bytes.Equal(bpayload, payload) {
				t.Fatalf("%s read gave op %d id %d %d bytes (err %v), plain read op %d id %d %d bytes (err %v)",
					name, bop, bid, len(bpayload), berr, op, id, len(payload), err)
			}
		}
		if err != nil {
			return
		}
		if p, err := decodePreference(payload); err == nil && len(p.Nodes) != len(p.Weights) {
			t.Fatalf("preference with %d nodes and %d weights", len(p.Nodes), len(p.Weights))
		}
		if err := decodeError(payload); err == nil {
			t.Fatal("opError payload decoded to no error")
		}
		body, _, err := decodeReply(op, payload)
		if err != nil || op != opCompactShare {
			return
		}
		v, err := sparse.DecodePacked(body)
		if err != nil {
			return
		}
		for k := 1; k < v.Len(); k++ {
			if v.At(k).ID <= v.At(k-1).ID {
				t.Fatalf("accepted share has ids out of order: %v", v.Entries())
			}
		}
	})
}
