// Package runtime is the concurrent distributed engine: one goroutine
// per SoC, exchanging tensors over a transport.Mesh (in-process
// channels or real loopback TCP). Where internal/core trains each
// logical group as a mathematically equivalent single model (the
// "lift"), this package executes the actual distributed protocol —
// chunked Ring-AllReduce inside groups, a leader ring across groups,
// parameter-server rounds for the baselines — and is used to validate
// the lift and to demonstrate the system end to end.
package runtime

import (
	"fmt"

	"socflow/internal/tensor"
	"socflow/internal/transport"
)

// rankOf returns the index of id within members, or -1.
func rankOf(id int, members []int) int {
	for i, m := range members {
		if m == id {
			return i
		}
	}
	return -1
}

// chunkBounds splits length n into count contiguous chunks and returns
// chunk c's [lo, hi) bounds.
func chunkBounds(n, count, c int) (lo, hi int) {
	lo = c * n / count
	hi = (c + 1) * n / count
	return lo, hi
}

// RingAllReduceAverage runs the standard two-phase chunked ring
// all-reduce (reduce-scatter then all-gather) over members, averaging
// `data` in place. Every member must call it with the same member list
// and an equal-length vector. A single member is a no-op.
//
// All 2(n-1) steps encode into one send buffer, which Node's ownership
// contract (Send keeps no reference) makes safe to reuse, and received
// chunks decode straight into data: the only per-step allocation left
// is the transport's received frame.
func RingAllReduceAverage(node transport.Node, members []int, data []float32) error {
	n := len(members)
	if n <= 1 {
		return nil
	}
	rank := rankOf(node.ID(), members)
	if rank < 0 {
		return fmt.Errorf("runtime: node %d is not in members %v", node.ID(), members)
	}
	right := members[(rank+1)%n]
	left := members[(rank-1+n)%n]
	maxChunk := (len(data) + n - 1) / n
	buf := make([]byte, 0, 4+4*maxChunk)

	// step sends chunk sendIdx right and folds the chunk arriving from
	// the left into chunk recvIdx with merge.
	step := func(sendIdx, recvIdx int, merge func([]float32, []byte) error, phase string) error {
		lo, hi := chunkBounds(len(data), n, sendIdx)
		buf = transport.AppendVector(buf[:0], data[lo:hi])
		if err := node.Send(right, buf); err != nil {
			return err
		}
		msg, err := node.Recv(left)
		if err != nil {
			return err
		}
		rlo, rhi := chunkBounds(len(data), n, recvIdx)
		if err := merge(data[rlo:rhi], msg); err != nil {
			return fmt.Errorf("runtime: %s chunk: %w", phase, err)
		}
		return nil
	}

	// Phase 1: reduce-scatter. After step s each rank has accumulated
	// one more peer's contribution to a rotating chunk; after n-1 steps
	// rank r holds the fully reduced chunk (r+1) mod n.
	for s := 0; s < n-1; s++ {
		if err := step((rank-s+n)%n, (rank-s-1+n)%n, transport.AddVector, "reduce-scatter"); err != nil {
			return err
		}
	}

	// Phase 2: all-gather the reduced chunks around the ring.
	for s := 0; s < n-1; s++ {
		if err := step((rank+1-s+n)%n, (rank-s+n)%n, transport.CopyVector, "all-gather"); err != nil {
			return err
		}
	}

	inv := 1 / float32(n)
	for i := range data {
		data[i] *= inv
	}
	return nil
}

// PSRound runs one synchronous parameter-server round: every member
// sends its vector to the server, which averages them (including its
// own contribution if it is a member) and sends the result back. All
// participants return the averaged vector in place.
func PSRound(node transport.Node, members []int, server int, data []float32) error {
	if node.ID() == server {
		acc := make([]float64, len(data))
		contributions := 0
		if rankOf(server, members) >= 0 {
			for i, v := range data {
				acc[i] += float64(v)
			}
			contributions++
		}
		push := make([]float32, len(data))
		for _, m := range members {
			if m == server {
				continue
			}
			msg, err := node.Recv(m)
			if err != nil {
				return err
			}
			if err := transport.CopyVector(push, msg); err != nil {
				return fmt.Errorf("runtime: PS push: %w", err)
			}
			for i, v := range push {
				acc[i] += float64(v)
			}
			contributions++
		}
		inv := 1 / float64(contributions)
		for i := range data {
			data[i] = float32(acc[i] * inv)
		}
		out := transport.EncodeVector(data)
		for _, m := range members {
			if m == server {
				continue
			}
			if err := node.Send(m, out); err != nil {
				return err
			}
		}
		return nil
	}
	if err := node.Send(server, transport.EncodeVector(data)); err != nil {
		return err
	}
	msg, err := node.Recv(server)
	if err != nil {
		return err
	}
	if err := transport.CopyVector(data, msg); err != nil {
		return fmt.Errorf("runtime: PS pull: %w", err)
	}
	return nil
}

// Broadcast sends root's vector to every other member; non-roots
// overwrite their vector with the received one.
func Broadcast(node transport.Node, members []int, root int, data []float32) error {
	if node.ID() == root {
		out := transport.EncodeVector(data)
		for _, m := range members {
			if m == root {
				continue
			}
			if err := node.Send(m, out); err != nil {
				return err
			}
		}
		return nil
	}
	msg, err := node.Recv(root)
	if err != nil {
		return err
	}
	if err := transport.CopyVector(data, msg); err != nil {
		return fmt.Errorf("runtime: broadcast: %w", err)
	}
	return nil
}

// flatten copies a tensor set into one vector.
func flatten(ts []*tensor.Tensor) []float32 {
	return flattenInto(nil, ts)
}

// flattenInto copies a tensor set into dst, reusing dst's storage when
// its capacity suffices. Workers keep one flat buffer per exchange kind
// and re-flatten into it every iteration, so the gradient-sync hot path
// stops allocating after the first batch.
func flattenInto(dst []float32, ts []*tensor.Tensor) []float32 {
	total := 0
	for _, t := range ts {
		total += t.Size()
	}
	if cap(dst) < total {
		dst = make([]float32, 0, total)
	}
	dst = dst[:0]
	for _, t := range ts {
		dst = append(dst, t.Data...)
	}
	return dst
}

// unflatten copies a vector back into a tensor set.
func unflatten(v []float32, ts []*tensor.Tensor) {
	off := 0
	for _, t := range ts {
		copy(t.Data, v[off:off+t.Size()])
		off += t.Size()
	}
}
