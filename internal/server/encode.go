package server

import (
	"encoding/json"
	"math"
	"strconv"
	"sync"
)

// Reflection-free renderers for the release-shaped response bodies. Each
// returns, byte for byte, what json.Marshal produces for the same wire
// struct (pinned by TestSyntheticEncoderMatchesJSON and
// TestTableEncoderMatchesJSON), because the result cache replays these
// bytes and a hit must be indistinguishable from the miss that made it.
// The bodies are mostly numbers: encoding/json reaches each one by
// reflection, while here each value is one append. Strings keep
// encoding/json's own escaping (HTML-safe <, >, & and U+2028/9), so they
// still go through json.Marshal.

// encodeSyntheticBody renders a /v1/synthetic body. A synthetic sample is
// thousands of small-integer rows; digits 0–9 — almost every categorical
// code — take one byte each.
func encodeSyntheticBody(b syntheticBody) ([]byte, error) {
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

// encodeReleaseBody renders a /v1/release body.
func encodeReleaseBody(b releaseBody) ([]byte, error) {
	strategy, err := json.Marshal(b.Strategy)
	if err != nil {
		return nil, err
	}
	return render(func(dst []byte) ([]byte, error) {
		dst = append(dst, `{"strategy":`...)
		dst = append(dst, strategy...)
		dst = append(dst, `,"total_variance":`...)
		if dst, err = appendFloatJSON(dst, b.TotalVariance); err != nil {
			return nil, err
		}
		dst = append(dst, `,"tables":`...)
		if dst, err = appendTablesJSON(dst, b.Tables); err != nil {
			return nil, err
		}
		return append(dst, '}'), nil
	})
}

// encodeCubeBody renders a /v1/cube body.
func encodeCubeBody(b cubeBody) ([]byte, error) {
	return render(func(dst []byte) ([]byte, error) {
		dst = append(dst, `{"max_order":`...)
		dst = strconv.AppendInt(dst, int64(b.MaxOrder), 10)
		dst = append(dst, `,"total_variance":`...)
		var err error
		if dst, err = appendFloatJSON(dst, b.TotalVariance); err != nil {
			return nil, err
		}
		dst = append(dst, `,"cuboids":`...)
		if dst, err = appendTablesJSON(dst, b.Cuboids); err != nil {
			return nil, err
		}
		return append(dst, '}'), nil
	})
}

// scratchPool holds the buffers render builds bodies in.
var scratchPool = sync.Pool{New: func() any { return new([]byte) }}

// render returns the body fill appends to an empty buffer, copied out at
// its exact length. The result cache keeps a body for the life of its
// entry, and the length of rendered floats is not known in advance, so the
// body is built in pooled scratch — which grows once and is reused —
// rather than in a buffer sized by a worst-case bound.
func render(fill func(dst []byte) ([]byte, error)) ([]byte, error) {
	bp := scratchPool.Get().(*[]byte)
	defer scratchPool.Put(bp)
	dst, err := fill((*bp)[:0])
	if err != nil {
		return nil, err
	}
	*bp = dst
	out := make([]byte, len(dst))
	copy(out, dst)
	return out, nil
}

// appendBudgetJSON appends the JSON object of b.
func appendBudgetJSON(dst []byte, b budgetJSON) ([]byte, error) {
	var err error
	for _, f := range []struct {
		key string
		v   float64
	}{
		{`{"epsilon_spent":`, b.EpsilonSpent},
		{`,"epsilon_cap":`, b.EpsilonCap},
		{`,"delta_spent":`, b.DeltaSpent},
		{`,"delta_cap":`, b.DeltaCap},
	} {
		dst = append(dst, f.key...)
		if dst, err = appendFloatJSON(dst, f.v); err != nil {
			return nil, err
		}
	}
	dst = append(dst, `,"releases":`...)
	dst = strconv.AppendInt(dst, int64(b.Releases), 10)
	return append(dst, '}'), nil
}

// budgetLen bounds a rendered budgetJSON: its keys, four floats of at
// most 25 characters each and an int.
const budgetLen = len(`{"epsilon_spent":,"epsilon_cap":,"delta_spent":,"delta_cap":,"releases":}`) + 4*25 + 20

// appendTablesJSON appends the JSON array of tables (null when nil).
func appendTablesJSON(dst []byte, tables []marginalJSON) ([]byte, error) {
	if tables == nil {
		return append(dst, "null"...), nil
	}
	var err error
	dst = append(dst, '[')
	for i, t := range tables {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"attrs":`...)
		dst = appendIntsJSON(dst, t.Attrs)
		dst = append(dst, `,"cells":`...)
		if t.Cells == nil {
			dst = append(dst, "null"...)
		} else {
			dst = append(dst, '[')
			for j, v := range t.Cells {
				if j > 0 {
					dst = append(dst, ',')
				}
				if dst, err = appendFloatJSON(dst, v); err != nil {
					return nil, err
				}
			}
			dst = append(dst, ']')
		}
		dst = append(dst, `,"variance":`...)
		if dst, err = appendFloatJSON(dst, t.Variance); err != nil {
			return nil, err
		}
		dst = append(dst, '}')
	}
	return append(dst, ']'), nil
}

// appendFloatJSON appends f as encoding/json renders a float64: the
// shortest 'f' form, or 'e' form when 0 < |f| < 1e-6 or |f| ≥ 1e21, with
// a two-digit negative exponent shortened (e-07 → e-7). NaN and ±Inf
// have no JSON form and are refused, as json.Marshal refuses them.
//
// Every released cell and variance passes through here, so the common
// case — a normal double with 1e-6 ≤ |f| < 1e21 — takes its shortest
// digits from Schubfach (shortest.go) and writes them straight into dst
// in the 'f' layout, at about half strconv's cost. Zero, subnormals and
// the 'e' range keep the strconv path. FuzzFloatJSON and
// TestFloatJSONGolden hold both paths to json.Marshal byte for byte.
func appendFloatJSON(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	abs := math.Abs(f)
	if abs >= 1e-6 && abs < 1e21 {
		b := math.Float64bits(f)
		c := b&(1<<52-1) | 1<<52
		q := int(b>>52&0x7ff) - 1075
		return appendShortestF(dst, b>>63 != 0, c, q), nil
	}
	format := byte('f')
	if abs != 0 {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
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
