//go:build amd64

package kernels

// BMOD and BDIV dispatch to hand-written AVX2+FMA micro-kernels when the
// CPU and OS support it, mirroring the paper's use of hand-optimized
// Level-3 BLAS for the block operations (fma.go holds the drivers).
// Detection follows the standard sequence: CPUID leaf 1 must advertise
// FMA, AVX and OSXSAVE, and XGETBV must confirm the OS saves the XMM/YMM
// state. Without them, and on non-amd64 builds, the portable
// register-tiled Go code runs.

// cpuidex executes CPUID with the given leaf/subleaf.
func cpuidex(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0.
func xgetbv0() (eax, edx uint32)

// dot4x2fma computes the eight inner products of four A rows against two
// B rows over n shared elements: out[2i+j] = Σₖ aᵢ[k]·bⱼ[k].
//
//go:noescape
func dot4x2fma(a0, a1, a2, a3, b0, b1 *float64, n int, out *[8]float64)

// mulsubStrip subtracts the product of nr rows of A and one packed
// strip from C: cᵣ[j] −= Σₖ aᵣ[k]·bp[8k+j] for r < nr, j < nc ≤ 8, over n
// panel elements, with strip columns past nc packed as zeros. A row r
// starts at a + r·lda, and C row r at c + rows[r]·ldc, or at c + r·ldc
// when rows is nil. Columns past nc are never read or written.
//
//go:noescape
func mulsubStrip(a *float64, lda int, bp *float64, n int, c *float64, ldc int, rows *int, nr int, nc int)

// pack8 transposes eight rows of B, ldb apart, into a packed strip:
// dst[8k+j] = b[j·ldb+k] for j < 8, k < n.
//
//go:noescape
func pack8(b *float64, ldb int, n int, dst *float64)

// hasFMA is the single hardware-capability gate, computed once at init;
// SetFMA can never turn the micro-kernel on without it.
var hasFMA = detectFMA()

// useFMA gates the assembly micro-kernel. It is a variable, not a constant,
// so tests can force the portable path on hardware that has FMA.
var useFMA = hasFMA

func detectFMA() bool {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 1 {
		return false
	}
	_, _, ecx, _ := cpuidex(1, 0)
	const need = 1<<12 | 1<<27 | 1<<28 // FMA, OSXSAVE, AVX
	if ecx&need != need {
		return false
	}
	eax, _ := xgetbv0()
	return eax&6 == 6 // OS maintains XMM and YMM state
}
