package coding

import "fmt"

// CodeRate identifies one of the three 802.11a/g code rates. Rate 1/2 is
// the mother code; 2/3 and 3/4 are obtained by puncturing.
type CodeRate int

// The supported code rates.
const (
	Rate12 CodeRate = iota // rate 1/2, no puncturing
	Rate23                 // rate 2/3
	Rate34                 // rate 3/4
)

// String implements fmt.Stringer.
func (r CodeRate) String() string {
	switch r {
	case Rate12:
		return "1/2"
	case Rate23:
		return "2/3"
	case Rate34:
		return "3/4"
	}
	return fmt.Sprintf("CodeRate(%d)", int(r))
}

// Fraction returns the code rate as numerator/denominator (information bits
// per coded bit).
func (r CodeRate) Fraction() (num, den int) {
	switch r {
	case Rate12:
		return 1, 2
	case Rate23:
		return 2, 3
	case Rate34:
		return 3, 4
	}
	panic("coding: unknown code rate")
}

// Value returns the code rate as a float.
func (r CodeRate) Value() float64 {
	n, d := r.Fraction()
	return float64(n) / float64(d)
}

// The keep/drop masks applied cyclically to the rate-1/2 coded stream
// (ordered out0,out1 per input bit), shared read-only so the hot path
// never rebuilds them. The patterns are the standard 802.11a ones: for
// rate 3/4 the puncturing matrix is A=[1 1 0], B=[1 0 1] (transmit
// a1 b1 a2 b3); for rate 2/3 it is A=[1 1], B=[1 0] (transmit a1 b1 a2).
var (
	patRate12 = []bool{true, true}
	// Stream order a1 b1 a2 b2 -> keep a1 b1 a2.
	patRate23 = []bool{true, true, true, false}
	// Stream order a1 b1 a2 b2 a3 b3 -> keep a1 b1 a2 b3.
	patRate34 = []bool{true, true, true, false, false, true}
)

// puncturePattern returns the shared keep/drop mask for r. Callers must
// treat the slice as read-only.
func (r CodeRate) puncturePattern() []bool {
	switch r {
	case Rate12:
		return patRate12
	case Rate23:
		return patRate23
	case Rate34:
		return patRate34
	}
	panic("coding: unknown code rate")
}

// AppendPuncture drops coded bits from the rate-1/2 stream according to
// the pattern for r, appends the transmitted coded stream to dst and
// returns the extended slice, allocating nothing when dst has sufficient
// capacity.
func AppendPuncture(dst []byte, coded []byte, r CodeRate) []byte {
	pat := r.puncturePattern()
	for i, b := range coded {
		if pat[i%len(pat)] {
			dst = append(dst, b)
		}
	}
	return dst
}

// DepunctureInto expands the received channel LLRs of a punctured stream
// back to the rate-1/2 lattice of len(out) entries (CodedLen(nInfo)),
// inserting zero LLRs (erasures) at punctured positions and past the end
// of a short llrs. It zeroes out first, so a reused buffer gives the same
// lattice as a fresh one, and returns out.
func DepunctureInto(out, llrs []float64, r CodeRate) []float64 {
	clear(out)
	pat := r.puncturePattern()
	j := 0
	for i := 0; i < len(out) && j < len(llrs); i++ {
		if pat[i%len(pat)] {
			out[i] = llrs[j]
			j++
		}
	}
	return out
}
