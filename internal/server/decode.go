package server

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// Direct decoders for the two bulk fields of an inline release request.
// encoding/json decodes a [][]int row by row, growing every row and the
// outer slice by reflection; rowsJSON instead counts the values in one
// walk and parses them into a single backing array in a second, each row a
// capacity-capped view of it (as synth.SampleTuples lays out its rows).
//
// Both types accept and refuse exactly what json.Unmarshal into [][]int
// and []float64 does (pinned by FuzzRowsDecode):
//
//   - null sets the field to nil; [] is empty but not nil;
//   - a null row is a nil row, and a null number leaves its zero value;
//   - an integer must parse as a base-10 int64: a fraction, an exponent
//     or an out-of-range value is an error, as is any non-number;
//   - a float must parse as a float64; out-of-range is an error.
//
// encoding/json has validated the value's syntax before UnmarshalJSON
// runs; the walk still checks it. A field that already holds a value (a
// duplicate key in one object) decodes through encoding/json itself, which
// merges into the existing slices in its own way.

// rowsJSON is the "rows" field: tuples under the request's schema.
type rowsJSON [][]int

// UnmarshalJSON implements json.Unmarshaler.
func (r *rowsJSON) UnmarshalJSON(data []byte) error {
	if *r != nil {
		return json.Unmarshal(data, (*[][]int)(r))
	}
	nrows, nvals, err := walkRows(data, nil, nil)
	if err != nil {
		return err
	}
	if nrows < 0 {
		return nil // null
	}
	rows, vals := make([][]int, nrows), make([]int, nvals)
	if _, _, err := walkRows(data, rows, vals); err != nil {
		return err
	}
	*r = rows
	return nil
}

// countsJSON is the "counts" field: a full contingency vector.
type countsJSON []float64

// UnmarshalJSON implements json.Unmarshaler.
func (c *countsJSON) UnmarshalJSON(data []byte) error {
	if *c != nil {
		return json.Unmarshal(data, (*[]float64)(c))
	}
	n, err := walkFloats(data, nil)
	if err != nil {
		return err
	}
	if n < 0 {
		return nil // null
	}
	vals := make([]float64, n)
	if _, err := walkFloats(data, vals); err != nil {
		return err
	}
	*c = vals
	return nil
}

// walkRows walks a JSON array of integer arrays. With rows and vals nil it
// only checks and counts, returning nrows −1 for null; given slices of
// those counts it also fills them.
func walkRows(data []byte, rows [][]int, vals []int) (nrows, nvals int, err error) {
	s := jsonWalker{data: data}
	if s.null() {
		return -1, 0, s.end()
	}
	if !s.consume('[') {
		return 0, 0, s.typeError("rows", "[][]int")
	}
	if s.consume(']') {
		return 0, 0, s.end()
	}
	for {
		switch {
		case s.null():
			// A null row stays nil.
		case s.consume('['):
			lo := nvals
			for !s.consume(']') {
				if nvals > lo && !s.consume(',') {
					return 0, 0, s.syntaxError()
				}
				if !s.null() {
					v, err := s.int()
					if err != nil {
						return 0, 0, err
					}
					if vals != nil {
						vals[nvals] = v
					}
				}
				nvals++
			}
			if rows != nil {
				rows[nrows] = vals[lo:nvals:nvals]
			}
		default:
			return 0, 0, s.typeError("row", "[]int")
		}
		nrows++
		if s.consume(']') {
			return nrows, nvals, s.end()
		}
		if !s.consume(',') {
			return 0, 0, s.syntaxError()
		}
	}
}

// walkFloats walks a JSON array of numbers, like walkRows: with vals nil
// it checks the shape and counts (−1 for null); given vals it also parses
// and fills them, refusing numbers out of float64 range.
func walkFloats(data []byte, vals []float64) (int, error) {
	s := jsonWalker{data: data}
	if s.null() {
		return -1, s.end()
	}
	if !s.consume('[') {
		return 0, s.typeError("counts", "[]float64")
	}
	n := 0
	for !s.consume(']') {
		if n > 0 && !s.consume(',') {
			return 0, s.syntaxError()
		}
		if !s.null() {
			tok, ok := s.number()
			if !ok {
				return 0, s.typeError("count", "float64")
			}
			if vals != nil {
				v, err := strconv.ParseFloat(string(tok), 64)
				if err != nil {
					return 0, fmt.Errorf("json: cannot unmarshal number %s into float64", tok)
				}
				vals[n] = v
			}
		}
		n++
	}
	return n, s.end()
}

// jsonWalker is a cursor over one JSON value; every method skips the
// whitespace in front of what it looks for.
type jsonWalker struct {
	data []byte
	off  int
}

func (s *jsonWalker) skipSpace() {
	for s.off < len(s.data) {
		switch s.data[s.off] {
		case ' ', '\t', '\n', '\r':
			s.off++
		default:
			return
		}
	}
}

// consume steps over byte c if it comes next.
func (s *jsonWalker) consume(c byte) bool {
	s.skipSpace()
	if s.off < len(s.data) && s.data[s.off] == c {
		s.off++
		return true
	}
	return false
}

// null steps over the literal null if it comes next.
func (s *jsonWalker) null() bool {
	s.skipSpace()
	if len(s.data)-s.off >= 4 && string(s.data[s.off:s.off+4]) == "null" {
		s.off += 4
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (s *jsonWalker) end() error {
	s.skipSpace()
	if s.off != len(s.data) {
		return s.syntaxError()
	}
	return nil
}

// number steps over a number token of the JSON grammar
// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)? and returns it.
func (s *jsonWalker) number() ([]byte, bool) {
	s.skipSpace()
	d, i := s.data, s.off
	digits := func() bool {
		start := i
		for i < len(d) && d[i] >= '0' && d[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case !digits():
		return nil, false
	}
	if i < len(d) && d[i] == '.' {
		i++
		if !digits() {
			return nil, false
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false
		}
	}
	tok := d[s.off:i]
	s.off = i
	return tok, true
}

// int steps over a number that must be a base-10 int64, as
// strconv.ParseInt reads it: no fraction, no exponent, in range.
func (s *jsonWalker) int() (int, error) {
	tok, ok := s.number()
	if !ok {
		return 0, s.typeError("value", "int")
	}
	digits, neg := tok, false
	if digits[0] == '-' {
		digits, neg = digits[1:], true
	}
	var u uint64
	for _, c := range digits {
		if c < '0' || c > '9' || u > (1<<63)/10 {
			return 0, fmt.Errorf("json: cannot unmarshal number %s into int", tok)
		}
		u = u*10 + uint64(c-'0')
	}
	if u > 1<<63 || (u == 1<<63 && !neg) {
		return 0, fmt.Errorf("json: cannot unmarshal number %s into int", tok)
	}
	v := int64(u)
	if neg {
		v = -v
	}
	if int64(int(v)) != v {
		return 0, fmt.Errorf("json: cannot unmarshal number %s into int", tok)
	}
	return int(v), nil
}

func (s *jsonWalker) typeError(what, typ string) error {
	return fmt.Errorf("json: cannot unmarshal %s at offset %d into %s", what, s.off, typ)
}

func (s *jsonWalker) syntaxError() error {
	return fmt.Errorf("json: malformed array at offset %d", s.off)
}
