package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"socflow/internal/metrics"
)

// Per-op deadline defaults. An op that makes no progress for the
// deadline is retried with exponential backoff up to the retry budget,
// then fails — a worker whose peer has silently vanished unwinds
// instead of blocking forever. The defaults are generous relative to
// any legitimate compute gap between collectives.
const (
	DefaultOpTimeout = 30 * time.Second
	DefaultOpRetries = 2
)

// readBufSize is each link reader's buffer: big enough that a ring
// chunk's header and payload arrive in one read, small enough that the
// 56 links of an 8-node mesh hold under half a MiB.
const readBufSize = 8 << 10

// TCPMesh is a Mesh whose links are real TCP connections on loopback:
// every unordered pair of nodes shares one connection, with a reader
// goroutine demultiplexing inbound frames into a per-peer queue. This
// is the realistic transport — framing, flow control, and byte copies
// all happen as they would between SoCs.
type TCPMesh struct {
	n     int
	nodes []*tcpNode
	done  chan struct{} // closed by Close; unblocks Send/Recv waits

	opTimeout time.Duration
	opRetries int

	// Reliability counters, installed by SetMetrics; nil-safe no-ops
	// otherwise.
	cRetries      *metrics.Counter
	cDeadlineHits *metrics.Counter

	mu     sync.Mutex
	closed bool
}

// SetMetrics installs reliability counters: transport.tcp.retries
// counts retried Send/Recv attempts, transport.tcp.deadline.hits
// counts per-attempt deadline expiries. Call before training traffic;
// a nil registry leaves the no-op counters in place.
func (m *TCPMesh) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	m.cRetries = reg.Counter("transport.tcp.retries")
	m.cDeadlineHits = reg.Counter("transport.tcp.deadline.hits")
}

// NewTCPMesh builds an n-node mesh on 127.0.0.1. Each node listens on
// an ephemeral port; node i dials every node j > i, and the first
// frame on each connection announces the dialer's ID.
func NewTCPMesh(n int) (*TCPMesh, error) {
	if n <= 0 {
		return nil, fmt.Errorf("transport: mesh needs at least one node")
	}
	m := &TCPMesh{n: n, done: make(chan struct{}), opTimeout: DefaultOpTimeout, opRetries: DefaultOpRetries}
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			m.Close()
			return nil, fmt.Errorf("transport: listen for node %d: %w", i, err)
		}
		listeners[i] = l
		m.nodes = append(m.nodes, newTCPNode(m, i, n))
	}

	// Accept loop per node, run until its expected peers have arrived.
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer listeners[i].Close()
			// Node i accepts connections from every lower-numbered peer.
			seen := make(map[int]bool, i)
			for k := 0; k < i; k++ {
				conn, err := listeners[i].Accept()
				if err != nil {
					errs <- fmt.Errorf("transport: node %d accept: %w", i, err)
					return
				}
				peer, err := handshakePeer(conn, i)
				if err != nil {
					conn.Close()
					errs <- fmt.Errorf("transport: node %d: %w", i, err)
					return
				}
				if seen[peer] {
					conn.Close()
					errs <- fmt.Errorf("transport: node %d: duplicate handshake from peer %d", i, peer)
					return
				}
				seen[peer] = true
				m.nodes[i].attach(peer, conn)
			}
		}(i)
	}
	// Dial every higher-numbered peer.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			conn, err := net.Dial("tcp", listeners[j].Addr().String())
			if err != nil {
				m.Close()
				wg.Wait()
				return nil, fmt.Errorf("transport: dial %d->%d: %w", i, j, err)
			}
			var hdr [4]byte
			binary.LittleEndian.PutUint32(hdr[:], uint32(i))
			if _, err := conn.Write(hdr[:]); err != nil {
				m.Close()
				wg.Wait()
				return nil, err
			}
			m.nodes[i].attach(j, conn)
		}
	}
	wg.Wait()
	// Drain every accept error, not just the first: a bad handshake on
	// one node must not mask failures on others.
	close(errs)
	var acceptErrs []error
	for err := range errs {
		acceptErrs = append(acceptErrs, err)
	}
	if len(acceptErrs) > 0 {
		m.Close()
		return nil, errors.Join(acceptErrs...)
	}
	return m, nil
}

// handshakePeer reads the 4-byte peer announcement and validates it
// against the acceptor's expected range [0, limit) — a corrupt or
// hostile ID must be rejected, not used to index conns.
func handshakePeer(r io.Reader, limit int) (int, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, fmt.Errorf("handshake read: %w", err)
	}
	peer := binary.LittleEndian.Uint32(hdr[:])
	if uint64(peer) >= uint64(limit) {
		return 0, fmt.Errorf("handshake announced peer %d, want [0,%d)", peer, limit)
	}
	return int(peer), nil
}

// SetOpDeadline overrides the per-attempt Send/Recv deadline and the
// retry budget (retries < 0 keeps the default). Call it before any
// traffic; it is not synchronized with in-flight ops.
func (m *TCPMesh) SetOpDeadline(d time.Duration, retries int) {
	if d > 0 {
		m.opTimeout = d
	}
	if retries >= 0 {
		m.opRetries = retries
	}
}

// Size implements Mesh.
func (m *TCPMesh) Size() int { return m.n }

// Node implements Mesh.
func (m *TCPMesh) Node(i int) Node { return m.nodes[i] }

// Close implements Mesh.
func (m *TCPMesh) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	close(m.done)
	for _, nd := range m.nodes {
		nd.close()
	}
	return nil
}

type tcpNode struct {
	mesh *TCPMesh
	id   int
	n    int

	mu    sync.Mutex
	conns []net.Conn
	wmu   []sync.Mutex
	inbox []chan []byte
	ready []chan struct{} // closed when conns[peer] is attached
}

func newTCPNode(m *TCPMesh, id, n int) *tcpNode {
	nd := &tcpNode{
		mesh:  m,
		id:    id,
		n:     n,
		conns: make([]net.Conn, n),
		wmu:   make([]sync.Mutex, n),
		inbox: make([]chan []byte, n),
		ready: make([]chan struct{}, n),
	}
	for i := range nd.inbox {
		nd.inbox[i] = make(chan []byte, 64)
		nd.ready[i] = make(chan struct{})
	}
	return nd
}

func (nd *tcpNode) attach(peer int, conn net.Conn) {
	nd.mu.Lock()
	nd.conns[peer] = conn
	close(nd.ready[peer])
	nd.mu.Unlock()
	// The reader goroutine drains the socket into the inbox even while
	// the owner is busy sending: without it, a ring whose members all
	// send before they receive would deadlock on frames larger than
	// the socket buffer.
	go func() {
		br := bufio.NewReaderSize(conn, readBufSize)
		for {
			msg, err := readFrame(br)
			if err != nil {
				close(nd.inbox[peer])
				return
			}
			nd.inbox[peer] <- msg
		}
	}()
}

func (nd *tcpNode) close() {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	for _, c := range nd.conns {
		if c != nil {
			c.Close()
		}
	}
}

func (nd *tcpNode) ID() int   { return nd.id }
func (nd *tcpNode) Size() int { return nd.n }

func (nd *tcpNode) Send(to int, payload []byte) error {
	if to < 0 || to >= nd.n || to == nd.id {
		return fmt.Errorf("transport: node %d cannot send to %d", nd.id, to)
	}
	// The peer may never attach if the mesh is torn down during
	// construction; never wait on ready without also watching done.
	select {
	case <-nd.ready[to]:
	case <-nd.mesh.done:
		return fmt.Errorf("%w while %d sends to %d", ErrMeshClosed, nd.id, to)
	}
	nd.wmu[to].Lock()
	defer nd.wmu[to].Unlock()
	conn := nd.conns[to]
	backoff := 10 * time.Millisecond
	var err error
	for attempt := 0; attempt <= nd.mesh.opRetries; attempt++ {
		if attempt > 0 {
			nd.mesh.cRetries.Inc()
			select {
			case <-time.After(backoff):
			case <-nd.mesh.done:
				return fmt.Errorf("%w while %d sends to %d", ErrMeshClosed, nd.id, to)
			}
			backoff *= 2
		}
		// Every attempt arms a fresh deadline, so the one a previous
		// Send left behind is never cleared, only replaced.
		conn.SetWriteDeadline(time.Now().Add(nd.mesh.opTimeout))
		var wrote int
		wrote, err = writeFrame(conn, payload)
		if err == nil {
			return nil
		}
		// Retry only a clean timeout with nothing on the wire; a partial
		// frame (or any other failure) is fatal for the stream.
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			break
		}
		nd.mesh.cDeadlineHits.Inc()
		if wrote != 0 {
			break
		}
	}
	select {
	case <-nd.mesh.done:
		return fmt.Errorf("%w while %d sends to %d: %v", ErrMeshClosed, nd.id, to, err)
	default:
	}
	return fmt.Errorf("transport: send %d->%d: %w", nd.id, to, err)
}

// timerPool recycles Recv deadline timers across calls, so a Recv
// that has to wait allocates nothing.
var timerPool = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}}

func (nd *tcpNode) Recv(from int) ([]byte, error) {
	if from < 0 || from >= nd.n || from == nd.id {
		return nil, fmt.Errorf("transport: node %d cannot recv from %d", nd.id, from)
	}
	inbox := nd.inbox[from]
	// A frame already queued needs no deadline.
	select {
	case msg, ok := <-inbox:
		return nd.delivered(from, msg, ok)
	default:
	}
	timer := timerPool.Get().(*time.Timer)
	defer timerPool.Put(timer)
	start := time.Now()
	wait := nd.mesh.opTimeout
	for attempt := 0; attempt <= nd.mesh.opRetries; attempt++ {
		deadline := time.Now().Add(wait)
		timer.Reset(wait)
		for expired := false; !expired; {
			select {
			case msg, ok := <-inbox:
				stopTimer(timer)
				return nd.delivered(from, msg, ok)
			case <-nd.mesh.done:
				stopTimer(timer)
				return nil, fmt.Errorf("%w while %d recvs from %d", ErrMeshClosed, nd.id, from)
			case fired := <-timer.C:
				// A tick from before this call is left over from the
				// timer's previous use (stopTimer can miss a tick in
				// flight); re-arm for what is left of the deadline.
				if fired.Before(start) {
					timer.Reset(time.Until(deadline))
					continue
				}
				expired = true
			}
		}
		nd.mesh.cDeadlineHits.Inc()
		if attempt < nd.mesh.opRetries {
			nd.mesh.cRetries.Inc()
		}
		wait *= 2 // deadline backoff before the next bounded wait
	}
	return nil, fmt.Errorf("transport: recv %d<-%d: no frame within %d attempts of %v", nd.id, from, nd.mesh.opRetries+1, nd.mesh.opTimeout)
}

// delivered turns one inbox receive into Recv's result. A closed inbox
// means the link's reader hit an error: mesh teardown if the mesh is
// done, a link fault otherwise.
func (nd *tcpNode) delivered(from int, msg []byte, ok bool) ([]byte, error) {
	if ok {
		return msg, nil
	}
	select {
	case <-nd.mesh.done:
		return nil, fmt.Errorf("%w while %d recvs from %d", ErrMeshClosed, nd.id, from)
	default:
	}
	return nil, fmt.Errorf("transport: link %d->%d closed", from, nd.id)
}

// stopTimer stops t and drains a tick it already delivered, so the
// timer goes back to the pool idle.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}
