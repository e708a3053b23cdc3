package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"slices"
	"testing"
)

// FuzzReadMatrix hammers the request-body parser through both codecs.
// Whatever a client posts, readMatrix must return a fully validated matrix
// or an error — no panics, no NaN/Inf values admitted, no allocation sized
// from an unchecked header field. JSON bodies are also decoded
// differentially against encoding/json (see checkDifferential).
func FuzzReadMatrix(f *testing.F) {
	jsonSeeds := []string{
		`{"n":2,"colptr":[0,2,3],"rowind":[0,1,1],"val":[4,1,4]}`,
		`{"n":1,"colptr":[0,1],"rowind":[0],"val":[2]}`,
		`{}`,
		`{"n":-1,"colptr":[0],"rowind":[],"val":[]}`,
		`{"n":1000000000,"colptr":[0,1],"rowind":[0],"val":[1]}`,
		`{"n":2,"colptr":[0,5,3],"rowind":[0,1,1],"val":[4,1,4]}`,
		`{"n":2,"colptr":[0,-2,3],"rowind":[0,1,1],"val":[4,1,4]}`,
		`{"n":2,"colptr":[0,2,3],"rowind":[0,1],"val":[4,1,4]}`,
		`{"n":2,"colptr":[0,2,3],"rowind":[0,1,1],"val":[4,1,1e999]}`,
		`{"n":2,"colptr":[0,2,3],"rowind":[0,9,1],"val":[4,1,4]}`,
		`[1,2,3]`,
		`{"n":2,"unknown":true}`,
		`{"n":2,"colptr":`,
	}
	mmSeeds := []string{
		"%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n1 1 4.0\n2 1 1.0\n2 2 4.0\n",
		"%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 1 inf\n",
		"garbage",
	}
	for _, s := range jsonSeeds {
		f.Add([]byte(s), true)
	}
	for _, s := range mmSeeds {
		f.Add([]byte(s), false)
	}
	for _, s := range decoderSeeds {
		f.Add([]byte(s), true)
	}
	f.Fuzz(func(t *testing.T, data []byte, asJSON bool) {
		if len(data) > 1<<20 {
			return
		}
		if asJSON {
			got, gerr := decodeCSC(data)
			want, werr := refDecodeCSC(data)
			checkDifferential(t, data, cscKeys, gerr, werr, func() bool {
				return got.N == want.N && sameInts(got.ColPtr, want.ColPtr) &&
					sameInts(got.RowInd, want.RowInd) && sameFloats(got.Val, want.Val)
			})
		}
		ct := "text/plain"
		if asJSON {
			ct = "application/json"
		}
		m, err := ReadMatrix(bytes.NewReader(data), ct)
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("readMatrix accepted a matrix that fails Validate: %v", err)
		}
	})
}

// decoderSeeds exercise the decoder's grammar: whitespace, key order,
// nulls, escapes, number forms, and the three ways it is stricter than
// encoding/json (case-variant keys, duplicate keys, trailing data).
var decoderSeeds = []string{
	" \t\r\n{ \"val\" : [4 , 1e0,4.0E+0] ,\"rowind\":[0,1,1],\"colptr\":[0,2,3],\"n\":2 } \n",
	`{"n":2,"colptr":[0,2,3],"rowind":[0,1,1],"val":[4,1,4]} x`,
	`{"n":2,"N":2,"colptr":[0,2,3],"rowind":[0,1,1],"val":[4,1,4]}`,
	`{"N":2,"colptr":[0,2,3],"rowind":[0,1,1],"val":[4,1,4]}`,
	`{"\u006e":2,"colptr":[0,2,3],"rowind":[0,1,1],"val":[4,1,4]}`,
	`{"n":null,"colptr":null,"rowind":[null],"val":[null]}`,
	`{"n":-0,"colptr":[0,2.0],"rowind":[1e1],"val":[-0]}`,
	`{"n":99999999999999999999,"colptr":[0]}`,
	`{"n":01}`,
	`{"n":1,}`,
	`null`,
	``,
	`{"id":"x","b":[1]}`,
}

// refDecodeCSC is the encoding/json JSON-CSC decode the scanner replaced,
// kept as the fuzz oracle.
func refDecodeCSC(data []byte) (jsonCSC, error) {
	var c jsonCSC
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&c)
	return c, err
}

// refDecodeSolve is the encoding/json solve-body decode the scanner
// replaced (which let unknown keys through), plus the b/bs rule.
func refDecodeSolve(data []byte) (SolveRequest, error) {
	var req SolveRequest
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&req); err != nil {
		return req, err
	}
	if (req.B == nil) == (req.BS == nil) {
		return req, errors.New("exactly one of b and bs")
	}
	return req, nil
}

// checkDifferential holds the decoder (error gerr) to its contract with
// encoding/json (error werr): whatever the decoder accepts, encoding/json
// accepts with an identical result (same reports whether it is); and
// whatever encoding/json accepts that is a plain object — keys exactly
// from keys, each once, nothing after the object — the decoder accepts.
func checkDifferential(t *testing.T, data []byte, keys []string, gerr, werr error, same func() bool) {
	t.Helper()
	switch {
	case gerr == nil && werr != nil:
		t.Fatalf("decoder accepted %q, encoding/json rejects it: %v", data, werr)
	case gerr == nil && !same():
		t.Fatalf("decoder and encoding/json disagree on %q", data)
	case gerr != nil && werr == nil && plainObject(data, keys):
		t.Fatalf("decoder rejected %q (%v), encoding/json accepts it", data, gerr)
	}
}

// plainObject reports whether data is one JSON object whose keys come
// exactly (case included) from keys, each at most once, followed by
// nothing but whitespace.
func plainObject(data []byte, keys []string) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return false
	}
	seen := map[string]bool{}
	for dec.More() {
		tok, err := dec.Token()
		k, ok := tok.(string)
		if err != nil || !ok || seen[k] || !slices.Contains(keys, k) {
			return false
		}
		seen[k] = true
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			return false
		}
	}
	if tok, err := dec.Token(); err != nil || tok != json.Delim('}') {
		return false
	}
	_, err := dec.Token()
	return err == io.EOF
}

// sameInts and sameFloats compare decoded arrays exactly: nil-ness,
// length, and (for floats) bit patterns.
func sameInts(a, b []int) bool {
	return (a == nil) == (b == nil) && slices.Equal(a, b)
}

func sameFloats(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// FuzzSolveRequest decodes solve bodies differentially against
// encoding/json, as FuzzReadMatrix does for JSON-CSC bodies.
func FuzzSolveRequest(f *testing.F) {
	seeds := []string{
		`{"id":"00ff","b":[1,2.5,-3e-2]}`,
		`{"bs":[[1,2],[3,4]],"id":"00ff"}`,
		`{"id":"00ff","b":[1],"bs":[[1]]}`,
		`{"id":"00ff"}`,
		`{"id":null,"b":[]}`,
		`{"id":"a","b":null,"bs":[null,[1,null]]}`,
		`{"id":"\u00e9\ud83d\ude00\ud800x\"\\\/\b\f\n\r\t","b":[0]}`,
		"{\"id\":\"\xff\xfe\",\"b\":[0]}",
		`{"id":"a","ID":"b","b":[0]}`,
		`{"Id":"a","b":[0]}`,
		`{"id":"a","b":[0],"extra":1}`,
		`{"id":"a","b":[1e400]}`,
		`{"id":"a","b":[0]}{}`,
		`{"id":"a","b":[0]} `,
		`{"id":"a\u00","b":[0]}`,
		`{"id":"a","b":[-]}`,
		`[]`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		got, gerr := decodeSolve(data)
		want, werr := refDecodeSolve(data)
		checkDifferential(t, data, solveKeys, gerr, werr, func() bool {
			return got.ID == want.ID && sameFloats(got.B, want.B) &&
				slices.EqualFunc(got.BS, want.BS, sameFloats) && (got.BS == nil) == (want.BS == nil)
		})
	})
}
