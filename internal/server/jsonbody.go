package server

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// The service's two JSON request bodies — JSON-CSC matrices and solve
// requests — are decoded by one reflection-free single-pass scanner
// instead of encoding/json. The accepted grammar is one JSON object (RFC
// 8259, whitespace included) whose keys come from a fixed set, each at
// most once, in any order; unknown keys are rejected. Integers must be
// JSON integers within int range, and floats are converted by
// strconv.ParseFloat, so every accepted body decodes to exactly what
// encoding/json would produce (including null elements and string
// escapes). Compared with encoding/json the decoder is stricter in
// exactly three ways: it rejects case-variant keys, duplicate keys, and
// non-whitespace after the object. FuzzReadMatrix and FuzzSolveRequest
// hold it to that contract against encoding/json.

// jsonCSC is the JSON wire form of a symmetric matrix: the lower triangle
// (diagonal included) in compressed sparse column order, exactly mirroring
// sparse.Matrix.
type jsonCSC struct {
	N      int       `json:"n"`
	ColPtr []int     `json:"colptr"`
	RowInd []int     `json:"rowind"`
	Val    []float64 `json:"val"`
}

// SolveRequest is a /v1/solve body: a factor id and exactly one of a
// single right-hand side b or a batch bs.
type SolveRequest struct {
	ID string      `json:"id"`
	B  []float64   `json:"b,omitempty"`
	BS [][]float64 `json:"bs,omitempty"`
}

var (
	cscKeys   = []string{"n", "colptr", "rowind", "val"}
	solveKeys = []string{"id", "b", "bs"}
)

// decodeCSC decodes a JSON-CSC body. Arrays grow as their bytes are
// scanned, so no allocation is sized from the claimed n.
func decodeCSC(data []byte) (jsonCSC, error) {
	var c jsonCSC
	d := scanner{b: data}
	err := d.object(cscKeys, func(k int) error {
		var err error
		switch k {
		case 0:
			if !d.null() {
				c.N, err = d.int()
			}
		case 1:
			c.ColPtr, err = d.ints()
		case 2:
			c.RowInd, err = d.ints()
		case 3:
			c.Val, err = d.floats()
		}
		return err
	})
	return c, err
}

// DecodeSolve reads and decodes a /v1/solve body and enforces the
// exactly-one-of-b/bs rule. Exported so the cluster gateway accepts the
// same solve bodies as the single-node service.
func DecodeSolve(body io.Reader) (SolveRequest, error) {
	data, err := io.ReadAll(body)
	if err != nil {
		return SolveRequest{}, fmt.Errorf("reading solve body: %w", err)
	}
	req, err := decodeSolve(data)
	if err != nil {
		return SolveRequest{}, fmt.Errorf("bad solve body: %w", err)
	}
	return req, nil
}

func decodeSolve(data []byte) (SolveRequest, error) {
	var req SolveRequest
	d := scanner{b: data}
	err := d.object(solveKeys, func(k int) error {
		var err error
		switch k {
		case 0:
			if !d.null() {
				req.ID, err = d.str()
			}
		case 1:
			req.B, err = d.floats()
		case 2:
			req.BS, err = d.floatRows()
		}
		return err
	})
	if err != nil {
		return SolveRequest{}, err
	}
	if (req.B == nil) == (req.BS == nil) {
		return SolveRequest{}, errors.New(`exactly one of "b" and "bs" must be set`)
	}
	return req, nil
}

// scanner walks one JSON document held in memory.
type scanner struct {
	b []byte
	i int
}

func (d *scanner) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", d.i, fmt.Sprintf(format, args...))
}

// ws skips RFC 8259 whitespace.
func (d *scanner) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// consume skips whitespace, then the byte c if it comes next.
func (d *scanner) consume(c byte) bool {
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// null consumes a null literal if one comes next.
func (d *scanner) null() bool {
	d.ws()
	if len(d.b)-d.i >= 4 && string(d.b[d.i:d.i+4]) == "null" {
		d.i += 4
		return true
	}
	return false
}

// object decodes a document that is exactly one object whose keys are
// drawn from keys. For each key it calls value with the key's index; value
// consumes the key's value.
func (d *scanner) object(keys []string, value func(k int) error) error {
	if !d.consume('{') {
		return d.errorf("expected a JSON object")
	}
	var seen uint
	if !d.consume('}') {
		for {
			name, err := d.str()
			if err != nil {
				return err
			}
			k := 0
			for k < len(keys) && keys[k] != name {
				k++
			}
			if k == len(keys) {
				return d.errorf("unknown field %q", name)
			}
			if seen&(1<<k) != 0 {
				return d.errorf("duplicate field %q", name)
			}
			seen |= 1 << k
			if !d.consume(':') {
				return d.errorf("expected ':' after field %q", name)
			}
			if err := value(k); err != nil {
				return fmt.Errorf("field %q: %w", name, err)
			}
			if d.consume(',') {
				continue
			}
			if d.consume('}') {
				break
			}
			return d.errorf("expected ',' or '}' in object")
		}
	}
	d.ws()
	if d.i != len(d.b) {
		return d.errorf("data after the JSON object")
	}
	return nil
}

// array decodes a JSON array, calling elem once per element. It reports
// whether the value was null instead of an array.
func (d *scanner) array(elem func() error) (isNull bool, err error) {
	if d.null() {
		return true, nil
	}
	if !d.consume('[') {
		return false, d.errorf("expected an array")
	}
	if d.consume(']') {
		return false, nil
	}
	for {
		if err := elem(); err != nil {
			return false, err
		}
		if d.consume(',') {
			continue
		}
		if d.consume(']') {
			return false, nil
		}
		return false, d.errorf("expected ',' or ']' in array")
	}
}

// ints decodes an array of integers; null elements decode as 0 and a null
// array as nil, as encoding/json does.
func (d *scanner) ints() ([]int, error) {
	out := []int{}
	isNull, err := d.array(func() error {
		v := 0
		if !d.null() {
			var err error
			if v, err = d.int(); err != nil {
				return err
			}
		}
		out = append(out, v)
		return nil
	})
	if isNull {
		return nil, nil
	}
	return out, err
}

// floats decodes an array of numbers, with null as for ints.
func (d *scanner) floats() ([]float64, error) {
	out := []float64{}
	isNull, err := d.array(func() error {
		v := 0.0
		if !d.null() {
			var err error
			if v, err = d.float(); err != nil {
				return err
			}
		}
		out = append(out, v)
		return nil
	})
	if isNull {
		return nil, nil
	}
	return out, err
}

// floatRows decodes an array of number arrays; a null row decodes as nil.
func (d *scanner) floatRows() ([][]float64, error) {
	out := [][]float64{}
	isNull, err := d.array(func() error {
		row, err := d.floats()
		out = append(out, row)
		return err
	})
	if isNull {
		return nil, nil
	}
	return out, err
}

// number scans one JSON number token and reports whether it has neither a
// fraction nor an exponent.
func (d *scanner) number() (tok []byte, integer bool, err error) {
	d.ws()
	b, start := d.b, d.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if j := skipDigits(b, i); j > i {
		i = j
	} else {
		d.i = i
		return nil, false, d.errorf("expected a number")
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			d.i = j
			return nil, false, d.errorf("expected a digit after the decimal point")
		}
		i, integer = j, false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			d.i = j
			return nil, false, d.errorf("expected a digit in the exponent")
		}
		i, integer = j, false
	}
	d.i = i
	return b[start:i], integer, nil
}

// skipDigits returns the index of the first non-digit in b at or after i.
func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// int decodes one JSON integer within int range.
func (d *scanner) int() (int, error) {
	tok, integer, err := d.number()
	if err != nil {
		return 0, err
	}
	if !integer {
		return 0, d.errorf("%s is not an integer", tok)
	}
	digits := tok
	if tok[0] == '-' {
		digits = tok[1:]
	}
	if len(digits) > 9 { // may not fit a 32-bit int: let strconv decide
		v, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
		if err != nil {
			return 0, d.errorf("integer %s out of range", tok)
		}
		return int(v), nil
	}
	v := 0
	for _, c := range digits {
		v = 10*v + int(c-'0')
	}
	if tok[0] == '-' {
		v = -v
	}
	return v, nil
}

// float decodes one JSON number as a float64.
func (d *scanner) float() (float64, error) {
	tok, _, err := d.number()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, d.errorf("number %s out of float64 range", tok)
	}
	return v, nil
}

// str decodes one JSON string as encoding/json does: escapes resolved,
// and invalid UTF-8 bytes and unpaired surrogates replaced by U+FFFD.
func (d *scanner) str() (string, error) {
	if !d.consume('"') {
		return "", d.errorf("expected a string")
	}
	start := d.i
	for d.i < len(d.b) {
		c := d.b[d.i]
		if c == '"' {
			d.i++
			return string(d.b[start : d.i-1]), nil
		}
		if c == '\\' || c < ' ' || c >= utf8.RuneSelf {
			break
		}
		d.i++
	}
	buf := append([]byte(nil), d.b[start:d.i]...)
	for d.i < len(d.b) {
		c := d.b[d.i]
		switch {
		case c == '"':
			d.i++
			return string(buf), nil
		case c < ' ':
			return "", d.errorf("control character in string")
		case c == '\\':
			if d.i+1 >= len(d.b) {
				return "", d.errorf("unterminated escape")
			}
			e := d.b[d.i+1]
			d.i += 2
			switch e {
			case '"', '\\', '/':
				buf = append(buf, e)
			case 'b':
				buf = append(buf, '\b')
			case 'f':
				buf = append(buf, '\f')
			case 'n':
				buf = append(buf, '\n')
			case 'r':
				buf = append(buf, '\r')
			case 't':
				buf = append(buf, '\t')
			case 'u':
				r, err := d.hex4()
				if err != nil {
					return "", err
				}
				if utf16.IsSurrogate(r) {
					r = d.lowSurrogate(r)
				}
				buf = utf8.AppendRune(buf, r)
			default:
				return "", d.errorf("invalid escape \\%c", e)
			}
		case c < utf8.RuneSelf:
			buf = append(buf, c)
			d.i++
		default:
			r, size := utf8.DecodeRune(d.b[d.i:])
			d.i += size
			buf = utf8.AppendRune(buf, r)
		}
	}
	return "", d.errorf("unterminated string")
}

// hex4 decodes the four hex digits of a \u escape.
func (d *scanner) hex4() (rune, error) {
	if len(d.b)-d.i < 4 {
		return 0, d.errorf("short \\u escape")
	}
	var r rune
	for _, c := range d.b[d.i : d.i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, d.errorf("invalid \\u escape")
		}
		r = r<<4 | rune(c)
	}
	d.i += 4
	return r, nil
}

// lowSurrogate completes the surrogate pair started by hi when a \u
// escape forming a valid pair follows; otherwise it consumes nothing and
// returns U+FFFD, leaving any following escape to decode on its own.
func (d *scanner) lowSurrogate(hi rune) rune {
	if len(d.b)-d.i >= 6 && d.b[d.i] == '\\' && d.b[d.i+1] == 'u' {
		save := d.i
		d.i += 2
		if lo, err := d.hex4(); err == nil {
			if r := utf16.DecodeRune(hi, lo); r != unicode.ReplacementChar {
				return r
			}
		}
		d.i = save
	}
	return unicode.ReplacementChar
}
