package nn

import (
	"testing"

	"advhunter/internal/rng"
	"advhunter/internal/tensor"
)

// Varying batch widths through one arena must converge on the high-water
// buffers: after seeing the widest batch once, narrower (and repeated widest)
// passes perform zero allocations.
func TestScratchCapacityReuseAcrossWidths(t *testing.T) {
	r := rng.New(5)
	l := NewConv2D("c", 2, 4, 3, 1, 1)
	r.FillNormal(l.W.Value.Data(), 0, 0.5)
	xs := map[int]*tensor.Tensor{}
	for _, b := range []int{1, 3, 8} {
		xs[b] = tensor.New(b, 2, 8, 8)
		r.FillNormal(xs[b].Data(), 0, 1)
	}
	var s Scratch
	for _, b := range []int{1, 3, 8} { // warm to the high-water width
		s.Reset()
		l.ForwardScratch(xs[b], &s)
	}
	for _, b := range []int{8, 1, 3, 8} {
		allocs := testing.AllocsPerRun(10, func() {
			s.Reset()
			l.ForwardScratch(xs[b], &s)
		})
		if allocs != 0 {
			t.Fatalf("width %d: %v allocs/run after warm-up, want 0", b, allocs)
		}
	}
}
