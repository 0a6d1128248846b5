package transport

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"socflow/internal/metrics"
)

// patterned returns n bytes whose content depends on both the position
// and a per-frame seed, so a frame delivered out of order or torn at a
// buffer boundary cannot compare equal.
func patterned(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7) ^ seed
	}
	return b
}

// Frames around every size boundary of the frame path — empty, one
// byte, the read buffer ±1, the pooled-write bound ±1, and 1 MiB —
// interleaved on one link in both directions, arrive intact and in
// order.
func TestTCPFrameSizesInterleaved(t *testing.T) {
	m, err := NewTCPMesh(2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	sizes := []int{0, 1, 4095, readBufSize - 1, readBufSize, readBufSize + 1,
		maxPooledFrame - 1, maxPooledFrame, maxPooledFrame + 1, 1 << 20, 0, 1, 4095}
	var frames [][]byte
	for round := 0; round < 2; round++ {
		for i, n := range sizes {
			frames = append(frames, patterned(n, byte(16*round+i)))
		}
	}
	errc := make(chan error, 2)
	for _, dir := range [][2]int{{0, 1}, {1, 0}} {
		from := dir[0]
		to := dir[1]
		go func() {
			for _, f := range frames {
				if err := m.Node(from).Send(to, f); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}()
	}
	for _, dir := range [][2]int{{0, 1}, {1, 0}} {
		for k, want := range frames {
			got, err := m.Node(dir[1]).Recv(dir[0])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%d->%d frame %d: got %d bytes, want %d (or content differs)", dir[0], dir[1], k, len(got), len(want))
			}
		}
	}
	for range 2 {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// Every Node implementation and decorator honours the ownership
// contract: once Send returns, the caller may overwrite its buffer and
// the receiver still sees the original bytes.
func TestSendDoesNotRetainPayload(t *testing.T) {
	newTCP := func(t *testing.T) Mesh {
		m, err := NewTCPMesh(2)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	cases := map[string]func(t *testing.T) Mesh{
		"tcp":     newTCP,
		"chan":    func(*testing.T) Mesh { return NewChanMesh(2) },
		"metrics": func(*testing.T) Mesh { return WithMetrics(NewChanMesh(2), metrics.New()) },
		"faults":  func(t *testing.T) Mesh { return WithFaults(newTCP(t), &FaultPlan{}) },
		"heartbeat": func(t *testing.T) Mesh {
			return WithHeartbeat(newTCP(t), time.Millisecond, time.Minute, metrics.New())
		},
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			m := build(t)
			defer m.Close()
			buf := make([]byte, 3000)
			want := make([][]byte, 3)
			for k := range want {
				copy(buf, patterned(len(buf), byte(k)))
				want[k] = append([]byte(nil), buf...)
				if err := m.Node(0).Send(1, buf); err != nil {
					t.Fatal(err)
				}
				for i := range buf {
					buf[i] = 0xEE // reuse the buffer before the peer reads
				}
			}
			for k := range want {
				got, err := m.Node(1).Recv(0)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want[k]) {
					t.Fatalf("frame %d changed after the sender reused its buffer", k)
				}
			}
		})
	}
}

// A peer that stops draining its link fills the inbox and then the
// socket; Send must then fail within its deadline and count the hit,
// not block forever. This is the guarantee the per-attempt write
// deadline gives now that a successful Send leaves its deadline armed
// instead of clearing it.
func TestTCPMeshSendDeadlineOnFullPeer(t *testing.T) {
	m, err := NewTCPMesh(2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	reg := metrics.New()
	m.SetMetrics(reg)
	m.SetOpDeadline(100*time.Millisecond, 0)
	frame := make([]byte, 64<<10)
	start := time.Now()
	var sendErr error
	for i := 0; i < 4096 && sendErr == nil; i++ {
		sendErr = m.Node(0).Send(1, frame)
	}
	if sendErr == nil {
		t.Fatal("send to a peer that never reads must hit the deadline")
	}
	if errors.Is(sendErr, ErrMeshClosed) {
		t.Fatalf("deadline error must not claim the mesh closed: %v", sendErr)
	}
	if hits := reg.Counter("transport.tcp.deadline.hits").Value(); hits < 1 {
		t.Fatalf("transport.tcp.deadline.hits = %d, want >= 1", hits)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("filling the peer took %v", elapsed)
	}
}

// A deadline armed by an earlier Send that has since passed must not
// fail a later one: every attempt arms a fresh deadline first.
func TestTCPMeshSendAfterStaleDeadline(t *testing.T) {
	m, err := NewTCPMesh(2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.SetOpDeadline(20*time.Millisecond, 0)
	for k := 0; k < 3; k++ {
		if err := m.Node(0).Send(1, []byte{byte(k)}); err != nil {
			t.Fatalf("send %d: %v", k, err)
		}
		time.Sleep(40 * time.Millisecond) // outlive the deadline just armed
	}
	for k := 0; k < 3; k++ {
		if msg, err := m.Node(1).Recv(0); err != nil || msg[0] != byte(k) {
			t.Fatalf("recv %d = %v, %v", k, msg, err)
		}
	}
}

// Recv's pooled deadline timers come back idle: after Recvs that were
// satisfied while waiting, or that timed out, a Recv from a silent peer
// still waits out its full deadline instead of firing early on a
// leftover tick.
func TestTCPMeshRecvTimerReuse(t *testing.T) {
	m, err := NewTCPMesh(2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	const d = 60 * time.Millisecond
	m.SetOpDeadline(d, 0)
	if _, err := m.Node(0).Recv(1); err == nil {
		t.Fatal("recv from a silent peer must time out")
	}
	for k := 0; k < 3; k++ {
		go func() {
			time.Sleep(5 * time.Millisecond)
			m.Node(1).Send(0, []byte{byte(k)})
		}()
		if msg, err := m.Node(0).Recv(1); err != nil || msg[0] != byte(k) {
			t.Fatalf("recv %d = %v, %v", k, msg, err)
		}
	}
	start := time.Now()
	if _, err := m.Node(0).Recv(1); err == nil {
		t.Fatal("recv from a silent peer must time out")
	}
	if elapsed := time.Since(start); elapsed < d {
		t.Fatalf("recv gave up after %v, before its %v deadline", elapsed, d)
	}
}
