package server

import (
	"encoding/json"
	"strconv"
)

// encodeSyntheticBody returns the JSON encoding of b: byte for byte what
// json.Marshal(b) produces (pinned by TestSyntheticEncoderMatchesJSON),
// since the result cache replays these bytes. A synthetic sample is
// thousands of small-integer rows, which encoding/json walks by
// reflection; here each value is one append, and digits 0–9 — almost every
// categorical code — one byte.
func encodeSyntheticBody(b syntheticBody) ([]byte, error) {
	// The strategy keeps encoding/json's escaping (HTML-safe < etc.).
	strategy, err := json.Marshal(b.Strategy)
	if err != nil {
		return nil, err
	}
	size := len(`{"strategy":,"count":,"rows":[]}`) + len(strategy) + 20
	for _, row := range b.Rows {
		size += 2 + 2*len(row) // brackets and, per value, one digit and a comma
	}
	dst := make([]byte, 0, size)
	dst = append(dst, `{"strategy":`...)
	dst = append(dst, strategy...)
	dst = append(dst, `,"count":`...)
	dst = strconv.AppendInt(dst, int64(b.Count), 10)
	dst = append(dst, `,"rows":`...)
	if b.Rows == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, row := range b.Rows {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendIntsJSON(dst, row)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

// appendIntsJSON appends the JSON array of row (null when row is nil).
func appendIntsJSON(dst []byte, row []int) []byte {
	if row == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for j, v := range row {
		if j > 0 {
			dst = append(dst, ',')
		}
		if uint(v) < 10 {
			dst = append(dst, byte('0'+v))
		} else {
			dst = strconv.AppendInt(dst, int64(v), 10)
		}
	}
	return append(dst, ']')
}
