package server

import (
	"math/big"
	"math/bits"
)

// Shortest decimal digits of a float64 by Schubfach (R. Giulietti, "The
// Schubfach way to render doubles", 2020; the algorithm behind Java 19's
// Double.toString). For a finite double v it returns the decimal d·10^e
// with the fewest significant digits that rounds back to v, and among
// those the one closest to v, ties to an even last digit — the digits
// strconv.FormatFloat(v, _, -1, 64) prints. Three 128-bit multiplies
// against one table entry replace strconv's general decimal machinery.
//
// The code follows the paper's figure 7 and section 9 and the names of
// the Java reference: v = c·2^q, and the rounding interval of v is scaled
// by 4·10^−k so that its ends and v itself land on integers (vbl, vbr,
// vb) up to an odd-rounded error the paper proves harmless.

const (
	schubfachKMin = -324 // the smallest k the table covers
	schubfachKMax = 292  // the largest
	schubfachQMin = -1074
	schubfachCMin = 1 << 52 // the smallest normal significand
)

// schubfachTable holds, for k ∈ [schubfachKMin, schubfachKMax], the integer
// g = ⌊10^−k·2^−r⌋ + 1 where r = ⌊log₂ 10^−k⌋ − 125, so 2^125 ≤ g < 2^126,
// split into its high and low 63 bits. It is built once, at package
// initialisation, from exact integer arithmetic (≈1 ms).
var schubfachTable = buildSchubfachTable()

func buildSchubfachTable() *[schubfachKMax - schubfachKMin + 1][2]uint64 {
	tab := new([schubfachKMax - schubfachKMin + 1][2]uint64)
	ten := big.NewInt(10)
	mask63 := new(big.Int).Lsh(big.NewInt(1), 63)
	mask63.Sub(mask63, big.NewInt(1))
	for k := schubfachKMin; k <= schubfachKMax; k++ {
		r := flog2pow10(-k) - 125
		// g = ⌊10^−k / 2^r⌋ + 1 as a ratio of integers num/den.
		num, den := big.NewInt(1), big.NewInt(1)
		if k <= 0 {
			num.Exp(ten, big.NewInt(int64(-k)), nil)
		} else {
			den.Exp(ten, big.NewInt(int64(k)), nil)
		}
		if r >= 0 {
			den.Lsh(den, uint(r))
		} else {
			num.Lsh(num, uint(-r))
		}
		g := num.Quo(num, den)
		g.Add(g, big.NewInt(1))
		lo := new(big.Int).And(g, mask63)
		tab[k-schubfachKMin] = [2]uint64{g.Rsh(g, 63).Uint64(), lo.Uint64()}
	}
	return tab
}

// flog10pow2 is ⌊log₁₀ 2^e⌋, flog10ThreeQuartersPow2 is ⌊log₁₀ (¾·2^e)⌋ and
// flog2pow10 is ⌊log₂ 10^e⌋, each exact over the exponents a float64 can
// reach (checked against math/big by TestSchubfachLogs).
func flog10pow2(e int) int { return int(int64(e) * 661_971_961_083 >> 41) }

func flog10ThreeQuartersPow2(e int) int {
	return int((int64(e)*661_971_961_083 - 274_743_187_321) >> 41)
}

func flog2pow10(e int) int { return int(int64(e) * 913_124_641_741 >> 38) }

// shortestDecimal returns the shortest, closest decimal f·10^e of the
// positive normal double c·2^q (2^52 ≤ c < 2^53), with the trailing zeros
// of f removed.
func shortestDecimal(c uint64, q int) (f uint64, e int) {
	if 0 < -q && -q < 53 {
		// An integer below 2^53 is its own shortest decimal.
		if i := c >> uint(-q); i<<uint(-q) == c {
			return trimZeros(i, 0)
		}
	}
	out := c & 1 // the interval is closed when c is even, open when odd
	cb := c << 2
	cbr := cb + 2
	var cbl uint64
	var k int
	if c != schubfachCMin || q == schubfachQMin {
		cbl = cb - 2
		k = flog10pow2(q)
	} else {
		// At a binade's lower edge the gap below v is half the gap above.
		cbl = cb - 1
		k = flog10ThreeQuartersPow2(q)
	}
	h := uint(q + flog2pow10(-k) + 2)
	g := &schubfachTable[k-schubfachKMin]
	vb := roundToOdd(g, cb<<h)
	vbl := roundToOdd(g, cbl<<h)
	vbr := roundToOdd(g, cbr<<h)

	s := vb >> 2
	if s >= 100 {
		// At most one multiple of 10^(k+1) lies in the interval; if one
		// does, it is the shortest decimal.
		sp10 := 10 * (s / 10)
		tp10 := sp10 + 10
		upin := vbl+out <= sp10<<2
		wpin := tp10<<2+out <= vbr
		if upin != wpin {
			if upin {
				return trimZeros(sp10, k)
			}
			return trimZeros(tp10, k)
		}
	}
	// Otherwise s·10^k or (s+1)·10^k, whichever lies in the interval, or
	// the closer to v when both do (the even one on a tie).
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if uin {
			return trimZeros(s, k)
		}
		return trimZeros(t, k)
	}
	if cmp := int64(vb - (s+t)<<1); cmp < 0 || cmp == 0 && s&1 == 0 {
		return trimZeros(s, k)
	}
	return trimZeros(t, k)
}

// roundToOdd returns ⌊cp·g·2^−127⌋ with its lowest bit set when the
// discarded part is not zero (the paper's figure 8), g = g[0]·2^63 + g[1].
func roundToOdd(g *[2]uint64, cp uint64) uint64 {
	x1, _ := bits.Mul64(g[1], cp)
	y1, y0 := bits.Mul64(g[0], cp)
	z := y0>>1 + x1
	const mask63 = 1<<63 - 1
	return y1 + z>>63 | (z&mask63+mask63)>>63
}

// trimZeros strips the trailing decimal zeros of f·10^e.
func trimZeros(f uint64, e int) (uint64, int) {
	for f%10 == 0 {
		f /= 10
		e++
	}
	return f, e
}

// digitPairs holds "00" through "99", two bytes each.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// put2 writes the two digits of r < 100 to b.
func put2(b []byte, r uint32) { b[0], b[1] = digitPairs[2*r], digitPairs[2*r+1] }

// appendShortestF appends the normal double v = ±c·2^q in strconv's
// shortest 'f' layout — the digits with the decimal point placed, "0."
// and leading zeros below one, trailing zeros above the last digit, no
// exponent. It is meant for 1e-6 ≤ |v| < 1e21: below, the leading zeros
// would outgrow their constant, and above, the trailing zeros.
func appendShortestF(dst []byte, neg bool, c uint64, q int) []byte {
	f, e := shortestDecimal(c, q)
	// The digits of f, right-aligned in digs[i:]: eight at a time in 32-bit
	// arithmetic, then the leading ones.
	var digs [24]byte
	i := len(digs)
	for f >= 1e8 {
		r := uint32(f % 1e8)
		f /= 1e8
		i -= 8
		hi, lo := r/10000, r%10000
		put2(digs[i:], hi/100)
		put2(digs[i+2:], hi%100)
		put2(digs[i+4:], lo/100)
		put2(digs[i+6:], lo%100)
	}
	for r := uint32(f); ; {
		if r < 10 {
			i--
			digs[i] = byte('0' + r)
			break
		}
		i -= 2
		put2(digs[i:], r%100)
		if r /= 100; r == 0 {
			break
		}
	}
	d := digs[i:]
	n := len(d)
	dp := n + e // v = 0.d × 10^dp

	if neg {
		dst = append(dst, '-')
	}
	switch {
	case dp <= 0:
		dst = append(dst, "0.000000"[:2-dp]...)
		return append(dst, d...)
	case dp < n:
		dst = append(dst, d[:dp]...)
		dst = append(dst, '.')
		return append(dst, d[dp:]...)
	default:
		dst = append(dst, d...)
		return append(dst, "000000000000000000000"[:dp-n]...)
	}
}
