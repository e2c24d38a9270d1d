package ratectl

import (
	"math"
	"testing"

	"softrate/internal/rate"
)

// srTick is the fuzz streams' time step: a power of two, so a sample time
// plus the 1 s window minus the window is that sample time exactly, and
// a decision can land a sample on the window's edge.
const srTick = 1.0 / 256

// srMaxResults caps the feedback in one FuzzSampleRateWindow stream: each
// check may scan every sample still in the rings.
const srMaxResults = 2000

// FuzzSampleRateWindow holds avgTxTime's fast window to the full scan. A
// stream of two-byte ops (kind | ticks<<3, arg) drives an unbounded
// SampleRate: feedback at a rate (steps of 0..31 ticks, so ties too;
// mostly the rate's own lossless airtime, sometimes another), bursts of
// up to 256 equal-airtime results one tick apart, decisions now,
// decisions at exactly a stored sample's time plus the window, feedback
// stamped NaN, and at most one step back in time, of up to four seconds.
// After every result and decision, each rate's avgTxTime must have avgTxTimeScan's bits, and
// the decisions must be those of a twin instance held to the scan.
func FuzzSampleRateWindow(f *testing.F) {
	// Whole windows of one airtime at one rate, then another airtime.
	f.Add([]byte{3 | 31<<3, 2 | 8, 4, 0, 3 | 31<<3, 2 | 8 | 12<<4, 4, 0})
	// Losses, runs shorter than a window, other rates, a window edge.
	f.Add([]byte{3 | 4<<3, 3, 1 | 2<<3, 3 | 8, 3 | 9<<3, 3 | 8 | 13<<4, 6, 3, 6, 3 | 7<<3, 5, 0, 0 | 5<<3, 0 | 8, 4, 0})
	// Two seconds of feedback, a step back of two seconds, and feedback
	// again: the ring is no longer sorted, and windows that start inside
	// the second run skip samples on both sides of the step.
	f.Add([]byte{3 | 31<<3, 1 | 8, 3 | 31<<3, 1 | 8, 7, 128, 3 | 31<<3, 1 | 8, 3 | 15<<3, 1 | 8, 6, 1 | 9<<3, 4, 0})
	// A NaN-stamped result between two seconds-long runs: the scan counts
	// it in every window, so it breaks the ring's order too.
	f.Add([]byte{3 | 31<<3, 1 | 8, 7, 1 | (1|8)<<1, 3 | 31<<3, 1 | 8, 3 | 31<<3, 1 | 8, 4, 0})

	rates := rate.Evaluation()
	lossless := NominalAirtimes()
	f.Fuzz(func(t *testing.T, data []byte) {
		fast := NewSampleRate(rates, lossless, NewSplitMix(3))
		ref := NewSampleRate(rates, lossless, NewSplitMix(3))
		for i := range ref.rings {
			ref.rings[i].unsorted = true // held to the scan
		}
		check := func(op int, now float64) {
			for i := range rates {
				got, want := fast.avgTxTime(i, now), fast.avgTxTimeScan(i, now)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("op %d, rate %d at %v: fast window %v, scan %v", op, i, now, got, want)
				}
			}
		}
		decide := func(op int, now float64) {
			if got, want := fast.NextRate(now), ref.NextRate(now); got != want {
				t.Fatalf("op %d at %v: fast window chose %d, scan %d", op, now, got, want)
			}
			check(op, now)
		}
		now, steppedBack, results := 0.0, false, 0
		feed := func(op int, arg byte) {
			ri := int(arg&7) % len(rates)
			air := lossless[ri]
			switch arg >> 4 {
			case 12:
				air *= 2
			case 13:
				air = 1e-3
			case 14:
				air = 3e-3 / 7
			case 15:
				air = 0
			}
			// Without the delivered bit, every third result is lost.
			ok := arg&8 != 0 || results%3 != 0
			res := Result{Time: now, RateIndex: ri, Airtime: air, Delivered: ok}
			fast.OnResult(res)
			ref.OnResult(res)
			results++
			check(op, now)
		}
		for op := 0; 2*op+1 < len(data) && results < srMaxResults; op++ {
			kind, arg := data[2*op], data[2*op+1]
			ticks := float64(kind>>3) * srTick
			switch kind & 7 {
			case 0, 1, 2:
				now += ticks
				feed(op, arg)
			case 3:
				for k := 8 * (int(kind>>3) + 1); k > 0 && results < srMaxResults; k-- {
					now += srTick
					feed(op, arg)
				}
			case 4, 5:
				decide(op, now)
			case 6:
				r := &fast.rings[int(arg)%len(rates)]
				if r.n > 0 {
					decide(op, r.at(int(arg>>3)%r.n).time+fast.Window)
				}
			case 7:
				if arg&1 != 0 {
					at := now
					now = math.NaN()
					feed(op, arg>>1)
					now = at
				} else if !steppedBack {
					steppedBack = true
					now -= float64(arg>>1) * 8 * srTick
				}
			}
		}
	})
}
