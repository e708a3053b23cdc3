package server

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"blockfanout/internal/gen"
)

// TestDecodeCSCGrammar pins the decoder contract: any key order, RFC 8259
// whitespace and nulls as encoding/json reads them are accepted; unknown,
// case-variant and duplicate keys, trailing data, non-integers where
// integers belong and out-of-range numbers are rejected.
func TestDecodeCSCGrammar(t *testing.T) {
	ok := []struct {
		body string
		want jsonCSC
	}{
		{`{"n":1,"colptr":[0,1],"rowind":[0],"val":[2]}`,
			jsonCSC{N: 1, ColPtr: []int{0, 1}, RowInd: []int{0}, Val: []float64{2}}},
		{"\r\n\t {\"val\" :[ 2.5e0 ],\n\"rowind\":[ 0 ] , \"colptr\":[0,1],\"n\":1}\n ",
			jsonCSC{N: 1, ColPtr: []int{0, 1}, RowInd: []int{0}, Val: []float64{2.5}}},
		{`{"n":null,"colptr":null,"rowind":[],"val":[null,-0.5]}`,
			jsonCSC{RowInd: []int{}, Val: []float64{0, -0.5}}},
		{`{"n":-0}`, jsonCSC{}},
	}
	for _, c := range ok {
		got, err := decodeCSC([]byte(c.body))
		if err != nil {
			t.Errorf("%q: %v", c.body, err)
			continue
		}
		if got.N != c.want.N || !sameInts(got.ColPtr, c.want.ColPtr) ||
			!sameInts(got.RowInd, c.want.RowInd) || !sameFloats(got.Val, c.want.Val) {
			t.Errorf("%q decoded to %+v, want %+v", c.body, got, c.want)
		}
	}

	bad := []struct{ body, why string }{
		{`{"n":1,"bogus":true}`, `unknown field "bogus"`},
		{`{"N":1}`, `unknown field "N"`},
		{`{"n":1,"n":1}`, `duplicate field "n"`},
		{`{"n":1} {}`, "data after"},
		{`{"n":1.0}`, "not an integer"},
		{`{"n":1e3}`, "not an integer"},
		{`{"n":99999999999999999999}`, "out of range"},
		{`{"val":[1e999]}`, "out of float64 range"},
		{`{"n":01}`, "expected"},
		{`{"n":1,}`, "expected a string"},
		{`{"colptr":[0,]}`, "expected a number"},
		{`{"n":"1"}`, "expected a number"},
		{`[1]`, "expected a JSON object"},
		{`null`, "expected a JSON object"},
		{``, "expected a JSON object"},
	}
	for _, c := range bad {
		_, err := decodeCSC([]byte(c.body))
		if err == nil || !strings.Contains(err.Error(), c.why) {
			t.Errorf("%q: error %v, want one mentioning %q", c.body, err, c.why)
		}
	}
}

// TestDecodeSolveGrammar: the solve body's keys, escapes in the id, and
// the exactly-one-of-b/bs rule.
func TestDecodeSolveGrammar(t *testing.T) {
	req, err := decodeSolve([]byte(`{"bs":[[1,2],null],"id":"aé😀\n"}`))
	if err != nil {
		t.Fatal(err)
	}
	if req.ID != "aé\U0001F600\n" || len(req.BS) != 2 || req.BS[1] != nil || req.BS[0][1] != 2 || req.B != nil {
		t.Fatalf("decoded %+v", req)
	}
	for _, body := range []string{
		`{"id":"a"}`,
		`{"id":"a","b":null}`,
		`{"id":"a","b":[1],"bs":[[1]]}`,
	} {
		if _, err := decodeSolve([]byte(body)); err == nil || !strings.Contains(err.Error(), `exactly one of "b" and "bs"`) {
			t.Errorf("%q: error %v, want the b/bs rule", body, err)
		}
	}
	for _, body := range []string{
		`{"id":"a","b":[1],"extra":0}`,
		`{"ID":"a","b":[1]}`,
		`{"id":"a","id":"b","b":[1]}`,
		`{"id":"a","b":[1]}x`,
		`{"id":"a\x01","b":[1]}`,
		`{"id":"a\q","b":[1]}`,
		`{"id":"a\u12","b":[1]}`,
	} {
		if _, err := decodeSolve([]byte(body)); err == nil {
			t.Errorf("%q accepted", body)
		}
	}
}

func csc31Body(b *testing.B) []byte {
	b.Helper()
	m := gen.IrregularMesh(2200, 9, 3, 31) // the BCSSTK31 CI analogue
	body, err := json.Marshal(toCSC(m))
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// BenchmarkReadMatrixJSON decodes a JSON-CSC factor body of the BCSSTK31
// CI analogue, with encoding/json's decode as the reference.
func BenchmarkReadMatrixJSON(b *testing.B) {
	body := csc31Body(b)
	b.Run("scanner", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if _, err := ReadMatrix(bytes.NewReader(body), "application/json"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			c, err := refDecodeCSC(body)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := cscMatrix(c); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDecodeSolve decodes a single-RHS solve body for GRID150
// (22,500 floats), with encoding/json's decode as the reference.
func BenchmarkDecodeSolve(b *testing.B) {
	rhs := make([]float64, 150*150)
	for i := range rhs {
		rhs[i] = float64(i%97)/7 - 6.5
	}
	body, err := json.Marshal(SolveRequest{ID: "0123456789abcdef", B: rhs})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("scanner", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if _, err := DecodeSolve(bytes.NewReader(body)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if _, err := refDecodeSolve(body); err != nil {
				b.Fatal(err)
			}
		}
	})
}
