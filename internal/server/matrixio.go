// Request body parsing for the solve service: symmetric SPD matrices
// arrive either as MatrixMarket text (the exchange format of the paper's
// benchmark suite) or as JSON-CSC (the wire-friendly form of
// sparse.Matrix), selected by Content-Type.
package server

import (
	"fmt"
	"io"
	"math"
	"mime"
	"strings"

	"blockfanout/internal/mmio"
	"blockfanout/internal/sparse"
)

// ReadMatrix parses a factor-request body. contentType selects the codec:
// anything containing "json" is decoded as JSON-CSC; everything else is
// treated as MatrixMarket coordinate text. Exported so the cluster gateway
// accepts the same request bodies as the single-node service.
func ReadMatrix(body io.Reader, contentType string) (*sparse.Matrix, error) {
	mt := contentType
	if parsed, _, err := mime.ParseMediaType(contentType); err == nil {
		mt = parsed
	}
	var m *sparse.Matrix
	var err error
	if strings.Contains(mt, "json") {
		m, err = readCSC(body)
	} else {
		m, err = mmio.Read(body)
	}
	if err != nil {
		return nil, err
	}
	for i, v := range m.Val {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("matrix value %d is not finite (%g)", i, v)
		}
	}
	return m, nil
}

// readCSC decodes a JSON-CSC body into a validated matrix.
func readCSC(body io.Reader) (*sparse.Matrix, error) {
	data, err := io.ReadAll(body)
	if err != nil {
		return nil, fmt.Errorf("reading JSON-CSC body: %w", err)
	}
	c, err := decodeCSC(data)
	if err != nil {
		return nil, fmt.Errorf("bad JSON-CSC body: %w", err)
	}
	return cscMatrix(c)
}

// cscMatrix turns a decoded JSON-CSC body into a validated matrix.
func cscMatrix(c jsonCSC) (*sparse.Matrix, error) {
	// Cheap shape checks before anything downstream sizes buffers from the
	// claimed dimension: n is attacker-controlled, the arrays are backed by
	// actual body bytes.
	if c.N < 0 || c.N > mmio.MaxDim {
		return nil, fmt.Errorf("JSON-CSC dimension %d out of range [0, %d]", c.N, mmio.MaxDim)
	}
	if len(c.ColPtr) != c.N+1 {
		return nil, fmt.Errorf("JSON-CSC colptr has %d entries, want n+1 = %d", len(c.ColPtr), c.N+1)
	}
	if len(c.RowInd) != len(c.Val) {
		return nil, fmt.Errorf("JSON-CSC rowind/val lengths differ: %d vs %d", len(c.RowInd), len(c.Val))
	}
	m := &sparse.Matrix{N: c.N, ColPtr: c.ColPtr, RowInd: c.RowInd, Val: c.Val}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// validRHS checks one right-hand side before it is allowed into a batch,
// so one malformed vector can never fail the coalesced SolveMany call it
// would otherwise share with innocent requests.
func validRHS(n int, b []float64) error {
	if len(b) != n {
		return fmt.Errorf("rhs length %d, want %d", len(b), n)
	}
	for i, v := range b {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("rhs entry %d is not finite (%g)", i, v)
		}
	}
	return nil
}
