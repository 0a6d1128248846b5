package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"socflow/internal/tensor"
)

// reflectEncodeTensors is the reflection-driven encoder the presized
// one replaced; the wire bytes must not change.
func reflectEncodeTensors(ts []*tensor.Tensor) []byte {
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, uint32(len(ts)))
	for _, t := range ts {
		binary.Write(&buf, binary.LittleEndian, uint32(len(t.Shape)))
		for _, d := range t.Shape {
			binary.Write(&buf, binary.LittleEndian, uint32(d))
		}
		binary.Write(&buf, binary.LittleEndian, t.Data)
	}
	return buf.Bytes()
}

// elementEncodeVector is the per-element vector encoder the unrolled
// one replaced.
func elementEncodeVector(v []float32) []byte {
	buf := make([]byte, 4+4*len(v))
	binary.LittleEndian.PutUint32(buf, uint32(len(v)))
	for i, x := range v {
		binary.LittleEndian.PutUint32(buf[4+4*i:], math.Float32bits(x))
	}
	return buf
}

func randVector(r *tensor.RNG, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = r.Normal()
	}
	return v
}

func TestVectorGoldenBytes(t *testing.T) {
	got := hex.EncodeToString(EncodeVector([]float32{1, -2, 0.5}))
	if want := "03000000" + "0000803f" + "000000c0" + "0000003f"; got != want {
		t.Fatalf("EncodeVector = %s, want %s", got, want)
	}
	r := tensor.NewRNG(11)
	for _, n := range []int{0, 1, 3, 4, 5, 7, 8, 766, 6122} {
		v := randVector(r, n)
		want := elementEncodeVector(v)
		if got := EncodeVector(v); !bytes.Equal(got, want) {
			t.Fatalf("n=%d: EncodeVector bytes differ from the element-wise encoder", n)
		}
		// AppendVector keeps the prefix and appends the same bytes.
		prefix := []byte{9, 8, 7}
		if got := AppendVector(prefix, v); !bytes.Equal(got[:3], prefix) || !bytes.Equal(got[3:], want) {
			t.Fatalf("n=%d: AppendVector after a prefix differs", n)
		}
	}
}

func TestTensorsGoldenBytes(t *testing.T) {
	r := tensor.NewRNG(12)
	sets := [][]*tensor.Tensor{
		nil,
		{tensor.New()}, // rank 0: one element
		{tensor.RandNormal(r, 0, 1, 3, 4), tensor.RandNormal(r, 0, 1, 7)},
		{tensor.New(0, 5), tensor.RandNormal(r, 0, 1, 2, 3, 5, 1), tensor.RandNormal(r, 0, 1, 1)},
	}
	for k, ts := range sets {
		want := reflectEncodeTensors(ts)
		got := EncodeTensors(ts)
		if !bytes.Equal(got, want) {
			t.Fatalf("set %d: EncodeTensors bytes differ from the reflection encoder", k)
		}
		back, err := DecodeTensors(want)
		if err != nil {
			t.Fatalf("set %d: %v", k, err)
		}
		if len(back) != len(ts) {
			t.Fatalf("set %d: decoded %d tensors, want %d", k, len(back), len(ts))
		}
		for i := range ts {
			if !back[i].SameShape(ts[i]) {
				t.Fatalf("set %d tensor %d: shape %v, want %v", k, i, back[i].Shape, ts[i].Shape)
			}
			for j := range ts[i].Data {
				if math.Float32bits(back[i].Data[j]) != math.Float32bits(ts[i].Data[j]) {
					t.Fatalf("set %d tensor %d elem %d differs", k, i, j)
				}
			}
		}
	}
}

func TestDecodeTensorsRejectsTruncated(t *testing.T) {
	r := tensor.NewRNG(13)
	full := EncodeTensors([]*tensor.Tensor{tensor.RandNormal(r, 0, 1, 2, 3), tensor.RandNormal(r, 0, 1, 4)})
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeTensors(full[:cut]); err == nil {
			t.Fatalf("frame cut to %d of %d bytes must be rejected", cut, len(full))
		}
	}
	bad := binary.LittleEndian.AppendUint32(nil, 1)
	bad = binary.LittleEndian.AppendUint32(bad, 9) // rank 9
	if _, err := DecodeTensors(bad); err == nil {
		t.Fatal("implausible rank must be rejected")
	}
	huge := binary.LittleEndian.AppendUint32(nil, 1)
	huge = binary.LittleEndian.AppendUint32(huge, 2)
	huge = binary.LittleEndian.AppendUint32(huge, 1<<20)
	huge = binary.LittleEndian.AppendUint32(huge, 1<<20)
	if _, err := DecodeTensors(huge); err == nil {
		t.Fatal("implausible size must be rejected")
	}
}

func TestCopyAndAddVector(t *testing.T) {
	r := tensor.NewRNG(14)
	for _, n := range []int{0, 1, 3, 4, 9, 766} {
		src := randVector(r, n)
		frame := EncodeVector(src)
		dst := randVector(r, n)
		want := make([]float32, n)
		for i := range want {
			want[i] = dst[i] + src[i]
		}
		if err := AddVector(dst, frame); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float32bits(dst[i]) != math.Float32bits(want[i]) {
				t.Fatalf("n=%d: AddVector elem %d = %v, want %v", n, i, dst[i], want[i])
			}
		}
		if err := CopyVector(dst, frame); err != nil {
			t.Fatal(err)
		}
		for i := range src {
			if math.Float32bits(dst[i]) != math.Float32bits(src[i]) {
				t.Fatalf("n=%d: CopyVector elem %d = %v, want %v", n, i, dst[i], src[i])
			}
		}
	}
	frame := EncodeVector([]float32{1, 2, 3})
	for _, fn := range []func([]float32, []byte) error{AddVector, CopyVector} {
		if err := fn(make([]float32, 2), frame); err == nil {
			t.Fatal("a frame longer than dst must be rejected")
		}
		if err := fn(make([]float32, 4), frame); err == nil {
			t.Fatal("a frame shorter than dst must be rejected")
		}
		if err := fn(make([]float32, 3), frame[:9]); err == nil {
			t.Fatal("a truncated frame must be rejected")
		}
	}
}

func TestVectorCodecAllocationFree(t *testing.T) {
	r := tensor.NewRNG(15)
	v := randVector(r, 766)
	buf := make([]byte, 0, 4+4*len(v))
	frame := EncodeVector(v)
	dst := make([]float32, len(v))
	allocs := testing.AllocsPerRun(20, func() {
		buf = AppendVector(buf[:0], v)
		if AddVector(dst, frame) != nil || CopyVector(dst, frame) != nil {
			panic("codec rejected its own frame")
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendVector/AddVector/CopyVector allocate %.1f times per call", allocs)
	}
}
