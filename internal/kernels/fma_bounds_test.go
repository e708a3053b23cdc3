//go:build linux && amd64

package kernels

import (
	"os"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// guarded returns n float64s that end flush against an inaccessible
// page, so an operand placed there faults on any access past its last
// element.
func guarded(t *testing.T, n int) []float64 {
	t.Helper()
	page := os.Getpagesize()
	data := (8*n + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, data+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[data:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&mem[data-8*n])), n)
}

// The assembly kernels read and write their operands without bounds
// checks, so their extents are part of the contract: a short row group
// must not read A rows past nr, a partial strip must not touch C columns
// past nc, and pack8 must not read past the eighth row. Each operand is
// placed flush against a guard page; any access beyond it faults, which
// SetPanicOnFault turns into a test failure.
func TestAsmKernelsStayInBounds(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("kernel touched memory past its operand: %v", r)
		}
	}()
	var pk Pack
	for k := range pk {
		pk[k] = 1
	}
	for _, n := range []int{1, 5, 48} {
		for nr := 1; nr <= 2*tileRows+1; nr++ {
			for _, nc := range []int{1, 3, tileCols} {
				a := guarded(t, nr*n)
				mulsubStrip(&a[0], n, &pk[0], n, &make([]float64, nr*tileCols)[0], tileCols, nil, nr, nc)

				ldc := tileCols + 3
				c := guarded(t, (nr-1)*ldc+nc)
				av := make([]float64, nr*n)
				mulsubStrip(&av[0], n, &pk[0], n, &c[0], ldc, nil, nr, nc)
			}
		}
		b := guarded(t, (tileCols-1)*(n+2)+n)
		pack8(&b[0], n+2, n, &pk[0])
	}
}
