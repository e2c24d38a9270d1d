// Package rate defines the 802.11a/g bit rate table of the paper's Table 2:
// the eight modulation × code-rate combinations, their nominal throughput
// over a 20 MHz channel, and ordering helpers used by every rate adaptation
// algorithm in this repository.
package rate

import (
	"fmt"

	"softrate/internal/coding"
	"softrate/internal/modulation"
)

// Rate is one row of Table 2: a modulation scheme combined with a
// convolutional code rate.
type Rate struct {
	// Index is the position in the full table, 0 = most robust (BPSK 1/2).
	Index int
	// Scheme is the constellation used.
	Scheme modulation.Scheme
	// Code is the convolutional code rate.
	Code coding.CodeRate
	// Mbps is the nominal 802.11 data rate over a 20 MHz channel.
	Mbps float64
}

// String renders e.g. "QPSK 3/4 (18 Mbps)".
func (r Rate) String() string {
	return fmt.Sprintf("%v %v (%g Mbps)", r.Scheme, r.Code, r.Mbps)
}

// Name renders the short form, e.g. "QPSK 3/4".
func (r Rate) Name() string {
	return fmt.Sprintf("%v %v", r.Scheme, r.Code)
}

// table is the full 802.11a/g rate set (Table 2 of the paper). The paper's
// prototype implemented the first six; we implement all eight and default
// the experiments to the 6–36 Mbps subset the evaluation uses (§6.1).
var table = []Rate{
	{0, modulation.BPSK, coding.Rate12, 6},
	{1, modulation.BPSK, coding.Rate34, 9},
	{2, modulation.QPSK, coding.Rate12, 12},
	{3, modulation.QPSK, coding.Rate34, 18},
	{4, modulation.QAM16, coding.Rate12, 24},
	{5, modulation.QAM16, coding.Rate34, 36},
	{6, modulation.QAM64, coding.Rate23, 48},
	{7, modulation.QAM64, coding.Rate34, 54},
}

// All returns the complete eight-rate table.
func All() []Rate {
	out := make([]Rate, len(table))
	copy(out, table)
	return out
}

// Evaluation returns the six-rate subset (6–36 Mbps) used throughout the
// paper's evaluation: its AP "supports the 802.11a/g bit rates from 6 Mbps
// to 36 Mbps".
func Evaluation() []Rate {
	out := make([]Rate, 6)
	copy(out, table[:6])
	return out
}

// ByIndex returns the rate with the given table index.
func ByIndex(i int) Rate {
	if i < 0 || i >= len(table) {
		panic(fmt.Sprintf("rate: index %d out of range", i))
	}
	return table[i]
}

// Count returns the size of the full table.
func Count() int { return len(table) }

// Lowest returns the most robust rate (BPSK 1/2, 6 Mbps), used for ACK and
// feedback frames which SoftRate "always sends at the lowest available bit
// rate" (§3).
func Lowest() Rate { return table[0] }
