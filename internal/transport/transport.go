// Package transport provides the point-to-point messaging layer the
// distributed runtime runs on, mirroring the paper's prototype ("all
// the network communication, including Ring-AllReduce, parameter
// server, and federated learning, are implemented over TCP protocol").
//
// Two Mesh implementations share one interface: TCPMesh connects every
// pair of nodes over loopback TCP with length-prefixed framing — the
// realistic path — and ChanMesh uses in-process channels for fast,
// fully deterministic tests. The runtime is written against Mesh and
// works identically on both.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// ErrMeshClosed is wrapped by every Send/Recv error caused by mesh
// teardown, so callers can distinguish an orderly shutdown (first-error
// teardown, cancellation) from a transport fault with errors.Is.
var ErrMeshClosed = errors.New("transport: mesh closed")

// Node is one endpoint's view of the mesh.
//
// Buffer ownership: Send never keeps payload after it returns — every
// implementation has copied it or put it on the wire by then — so a
// caller may overwrite or reuse the slice immediately (the ring
// all-reduce encodes every step into one reused send buffer). The
// slice Recv returns belongs to the caller: no implementation reads or
// writes it again.
type Node interface {
	// ID returns this node's index in [0, Size).
	ID() int
	// Size returns the number of nodes in the mesh.
	Size() int
	// Send delivers a message to peer `to`. Messages between a pair of
	// nodes are ordered; Send may block until the peer consumes
	// backlog. Send does not retain payload.
	Send(to int, payload []byte) error
	// Recv returns the next message from peer `from`, blocking until
	// one arrives. The returned slice is owned by the caller.
	Recv(from int) ([]byte, error)
}

// Mesh is a fully connected group of nodes.
type Mesh interface {
	// Node returns endpoint i.
	Node(i int) Node
	// Size returns the node count.
	Size() int
	// Close tears down all links.
	Close() error
}

// maxFrame bounds a single message (64 MiB), a sanity guard against
// corrupted length prefixes.
const maxFrame = 64 << 20

// maxPooledFrame is the largest payload writeFrame copies into a pooled
// frame buffer to send header and payload in one write. Larger frames
// go out as two writes with no copy: past this size the copy costs
// more than the extra syscall saves, and the pool never holds a buffer
// bigger than this, so no link pins its largest frame.
const maxPooledFrame = 64 << 10

// framePool recycles frame-assembly buffers across links and
// decorators; releaseFrame keeps buffers over maxPooledFrame out of it.
var framePool = sync.Pool{New: func() any { b := make([]byte, 0, 4<<10); return &b }}

// releaseFrame returns a buffer taken from framePool, now holding
// frame, unless frame outgrew the pool's size bound (a pooled payload
// plus the frame and heartbeat headers); a buffer's capacity is only
// ever grown to fit a frame within the bound.
func releaseFrame(bp *[]byte, frame []byte) {
	if len(frame) <= maxPooledFrame+8 {
		*bp = frame[:0]
		framePool.Put(bp)
	}
}

// writeFrame writes a length-prefixed frame — with a single Write for
// payloads up to maxPooledFrame — and returns how many bytes reached w,
// so a caller can tell a clean failure (nothing written) from a torn
// frame.
func writeFrame(w io.Writer, payload []byte) (int, error) {
	if len(payload) > maxFrame {
		return 0, fmt.Errorf("transport: frame of %d bytes exceeds limit", len(payload))
	}
	if len(payload) > maxPooledFrame {
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
		n, err := w.Write(hdr[:])
		if err != nil {
			return n, err
		}
		m, err := w.Write(payload)
		return n + m, err
	}
	bp := framePool.Get().(*[]byte)
	frame := binary.LittleEndian.AppendUint32((*bp)[:0], uint32(len(payload)))
	frame = append(frame, payload...)
	n, err := w.Write(frame)
	releaseFrame(bp, frame)
	return n, err
}

// readFrame reads one length-prefixed frame. The header comes out of
// r's buffer without a copy; the payload is a fresh slice the caller
// owns.
func readFrame(r *bufio.Reader) ([]byte, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n > maxFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	_, _ = r.Discard(4) // cannot fail: Peek just buffered these bytes
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}
