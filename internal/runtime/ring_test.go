package runtime

import (
	"fmt"
	"math"
	"testing"

	"socflow/internal/tensor"
	"socflow/internal/transport"
)

// decodeRingAllReduceAverage is the ring as it was written before the
// fused codec: a fresh EncodeVector per send, DecodeVector per receive,
// then a separate add or copy loop. It is the bit-exact reference the
// fused ring must reproduce.
func decodeRingAllReduceAverage(node transport.Node, members []int, data []float32) error {
	n := len(members)
	if n <= 1 {
		return nil
	}
	rank := rankOf(node.ID(), members)
	right := members[(rank+1)%n]
	left := members[(rank-1+n)%n]
	exchange := func(sendIdx, recvIdx int, add bool) error {
		lo, hi := chunkBounds(len(data), n, sendIdx)
		if err := node.Send(right, transport.EncodeVector(data[lo:hi])); err != nil {
			return err
		}
		msg, err := node.Recv(left)
		if err != nil {
			return err
		}
		chunk, err := transport.DecodeVector(msg)
		if err != nil {
			return err
		}
		rlo, rhi := chunkBounds(len(data), n, recvIdx)
		if rhi-rlo != len(chunk) {
			return fmt.Errorf("chunk size mismatch %d vs %d", rhi-rlo, len(chunk))
		}
		for i := range chunk {
			if add {
				data[rlo+i] += chunk[i]
			} else {
				data[rlo+i] = chunk[i]
			}
		}
		return nil
	}
	for s := 0; s < n-1; s++ {
		if err := exchange((rank-s+n)%n, (rank-s-1+n)%n, true); err != nil {
			return err
		}
	}
	for s := 0; s < n-1; s++ {
		if err := exchange((rank+1-s+n)%n, (rank-s+n)%n, false); err != nil {
			return err
		}
	}
	inv := 1 / float32(n)
	for i := range data {
		data[i] *= inv
	}
	return nil
}

// ringOn all-reduces a seeded copy of the inputs over mesh with ring
// and returns every node's result.
func ringOn(t *testing.T, mesh transport.Mesh, dim int, ring func(transport.Node, []int, []float32) error) [][]float32 {
	t.Helper()
	n := mesh.Size()
	members := make([]int, n)
	vals := make([][]float32, n)
	r := tensor.NewRNG(uint64(1000*n + dim))
	for i := range vals {
		members[i] = i
		vals[i] = make([]float32, dim)
		for j := range vals[i] {
			vals[i][j] = r.Normal() * 3
		}
	}
	runOnMesh(t, mesh, func(node transport.Node) error {
		return ring(node, members, vals[node.ID()])
	})
	return vals
}

// The fused ring over TCP is bit-identical to the fused ring over
// channels and to the decode-then-add reference, for every group size
// the runtime uses and for ragged lengths (chunks of unequal size, and
// empty chunks when the vector is shorter than the ring).
func TestRingAllReduceFusedBitIdentical(t *testing.T) {
	for n := 2; n <= 8; n++ {
		tcp, err := transport.NewTCPMesh(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, dim := range []int{1, n - 1, n, 3*n + 1, 103, 6122} {
			if dim == 0 {
				continue
			}
			want := ringOn(t, transport.NewChanMesh(n), dim, decodeRingAllReduceAverage)
			for name, got := range map[string][][]float32{
				"tcp":  ringOn(t, tcp, dim, RingAllReduceAverage),
				"chan": ringOn(t, transport.NewChanMesh(n), dim, RingAllReduceAverage),
			} {
				for i := range want {
					for j := range want[i] {
						if math.Float32bits(got[i][j]) != math.Float32bits(want[i][j]) {
							t.Fatalf("n=%d dim=%d %s: node %d elem %d = %v, reference %v", n, dim, name, i, j, got[i][j], want[i][j])
						}
					}
				}
			}
		}
		tcp.Close()
	}
}

// At steady state the ring allocates at most one buffer per received
// frame (the transport's copy, which the receiver owns) plus one send
// buffer per member: encode and decode are allocation-free.
func TestRingAllReduceSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n = 8
	mesh, err := transport.NewTCPMesh(n)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	d := newRingDriver(mesh, vggMicroParams(t))
	defer d.stop()
	if err := d.run(); err != nil { // warm the links and pools
		t.Fatal(err)
	}
	var runErr error
	allocs := testing.AllocsPerRun(50, func() {
		if err := d.run(); err != nil && runErr == nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	frames := 2 * (n - 1) * n
	if limit := float64(frames + 2*n); allocs > limit {
		t.Fatalf("ring all-reduce: %.1f allocs per op, want <= %.0f (%d received frames + %d)", allocs, limit, frames, 2*n)
	}
}
