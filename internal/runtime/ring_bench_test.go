package runtime

import (
	"sync"
	"testing"

	"socflow/internal/dataset"
	"socflow/internal/nn"
	"socflow/internal/tensor"
	"socflow/internal/transport"
)

// vggMicroParams is the parameter count of the VGG-11 micro build on
// CIFAR-10 — the vector the mesh-ring workload all-reduces every
// iteration.
func vggMicroParams(tb testing.TB) int {
	tb.Helper()
	d := dataset.MustProfile("cifar10").Generate(dataset.GenOptions{Samples: 8, Seed: 1})
	return nn.MustSpec("vgg11").BuildMicro(tensor.NewRNG(1), d.Channels(), d.ImageSize(), d.Classes).ParamCount()
}

// ringDriver keeps one long-lived goroutine per mesh node, each
// running RingAllReduceAverage on its own vector whenever run is
// called. Reusing the goroutines and channels keeps the driver itself
// out of the allocation count.
type ringDriver struct {
	start []chan struct{}
	done  chan error
	data  [][]float32
	wg    sync.WaitGroup
}

func newRingDriver(mesh transport.Mesh, dim int) *ringDriver {
	n := mesh.Size()
	members := make([]int, n)
	d := &ringDriver{start: make([]chan struct{}, n), done: make(chan error, n), data: make([][]float32, n)}
	r := tensor.NewRNG(3)
	for i := 0; i < n; i++ {
		members[i] = i
		d.start[i] = make(chan struct{})
		d.data[i] = make([]float32, dim)
		for j := range d.data[i] {
			d.data[i][j] = r.Normal()
		}
	}
	for i := 0; i < n; i++ {
		node, start, data := mesh.Node(i), d.start[i], d.data[i]
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			for range start {
				d.done <- RingAllReduceAverage(node, members, data)
			}
		}()
	}
	return d
}

// run performs one all-reduce on every node and returns the first
// error.
func (d *ringDriver) run() error {
	for _, s := range d.start {
		s <- struct{}{}
	}
	var first error
	for range d.start {
		if err := <-d.done; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// stop ends the node goroutines and waits for them to exit.
func (d *ringDriver) stop() {
	for _, s := range d.start {
		close(s)
	}
	d.wg.Wait()
}

// BenchmarkRingAllReduceTCP is the per-frame cost gate for the
// gradient ring: 8 members over loopback TCP all-reduce a vector of
// the VGG-11 micro build's parameter count (112 frames of ~3 KB per
// op). Run it at -cpu 1, the configuration the mesh-ring workload
// uses.
func BenchmarkRingAllReduceTCP(b *testing.B) {
	const members = 8
	mesh, err := transport.NewTCPMesh(members)
	if err != nil {
		b.Fatal(err)
	}
	defer mesh.Close()
	d := newRingDriver(mesh, vggMicroParams(b))
	defer d.stop()
	if err := d.run(); err != nil { // warm the links and buffers
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.run(); err != nil {
			b.Fatal(err)
		}
	}
}
