//go:build !amd64

package kernels

// Non-amd64 builds have no assembly micro-kernel: the single capability
// gate hasFMA is constant-false, so dispatch can never select the FMA path
// (SetFMA(true) is a no-op). dot4x2fma, mulsubStrip and pack8
// nevertheless have real pure-Go implementations — not panics — so even a
// hypothetical dispatch bug degrades to correct, slower code instead of
// crashing the process.
const hasFMA = false

var useFMA = false

func dot4x2fma(a0, a1, a2, a3, b0, b1 *float64, n int, out *[8]float64) {
	dot4x2fmaGeneric(a0, a1, a2, a3, b0, b1, n, out)
}

func mulsubStrip(a *float64, lda int, bp *float64, n int, c *float64, ldc int, rows *int, nr int, nc int) {
	mulsubStripGeneric(a, lda, bp, n, c, ldc, rows, nr, nc)
}

func pack8(b *float64, ldb int, n int, dst *float64) { pack8Generic(b, ldb, n, dst) }
