package ratectl

import (
	"math"

	"softrate/internal/rate"
)

// Intner is the probe-selection randomness source for SampleRate. Both
// *math/rand.Rand (the simulators' shared PRNG) and *SplitMix (the
// relocatable 8-byte PRNG the decision service snapshots) satisfy it.
type Intner interface {
	Intn(n int) int
}

// SampleRate implements Bicket's SampleRate algorithm [4]: pick the rate
// with the smallest average transmission time per successfully delivered
// frame, measured over a sliding window, while occasionally sampling other
// rates to discover changes. The paper's evaluation shortens the averaging
// window from Bicket's 10 s to 1 s because it performed better (§6.1); we
// default to 1 s and make it configurable.
type SampleRate struct {
	// Rates is the available rate set.
	Rates []rate.Rate
	// Window is the averaging window in seconds (default 1).
	Window float64
	// ProbeEvery makes every n-th frame a sampling probe (default 10).
	ProbeEvery int
	// LosslessAirtime gives the no-retry airtime of a frame at each rate
	// (used both as the initial optimistic estimate and to rule out
	// sampling rates that cannot possibly win).
	LosslessAirtime []float64
	// MaxConsecFail skips rates with this many consecutive failures
	// (Bicket's rule, default 4).
	MaxConsecFail int
	// Rng drives probe rate selection.
	Rng Intner
	// WindowCap, when positive, bounds each per-rate sample ring to that
	// many entries (oldest overwritten first). It makes the dynamic state a
	// fixed size so the decision service can snapshot it; 0 (the
	// simulators' setting) keeps every in-window sample, growing the rings
	// as needed.
	WindowCap int

	frameCount uint64
	rings      []srRing
	consecFail []int
	lastProbe  int
	cands      []int // probe-candidate scratch, reused across frames
}

type srSample struct {
	time    float64
	airtime float64
	ok      bool
	// okBefore is the ring's delivered count before this sample (unbounded
	// rings only), so the delivered samples in any suffix of the ring are
	// one subtraction away.
	okBefore int
}

// srRing is a FIFO of samples in a power-of-two ring buffer: appends at
// the tail, expires from the head, and (under WindowCap) overwrites the
// oldest entry when full — the per-frame bookkeeping never allocates once
// the ring has grown to its working size.
//
// An unbounded ring also keeps what avgTxTime's fast window reads: while
// sample times never decrease, the in-window samples are a suffix of the
// ring, found by binary search, and their airtime sum is either a memoised
// run of equal airtimes or a loop over that suffix alone.
type srRing struct {
	buf  []srSample
	head int // index of the oldest sample
	n    int

	delivered int  // delivered samples ever tracked
	unsorted  bool // some sample was earlier than (or NaN beside) its predecessor
	run       int  // newest samples (maybe more than n) whose airtime bits are sumAir
	sumAir    uint64
	sums      []float64 // sums[k]: k copies of sumAir added in turn to zero
}

func (r *srRing) at(i int) *srSample { return &r.buf[(r.head+i)&(len(r.buf)-1)] }

func (r *srRing) push(s srSample, maxCap int) {
	if maxCap > 0 && r.n >= maxCap {
		// Full at the cap: the oldest slot becomes the newest sample.
		r.buf[r.head] = s
		r.head = (r.head + 1) & (len(r.buf) - 1)
		return
	}
	if r.n == len(r.buf) {
		r.grow(r.n + 1)
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = s
	r.n++
}

// grow re-linearizes the ring into a power-of-two buffer holding at least
// need samples.
func (r *srRing) grow(need int) {
	newCap := len(r.buf)
	if newCap == 0 {
		newCap = 8
	}
	for newCap < need {
		newCap *= 2
	}
	nb := make([]srSample, newCap)
	for i := 0; i < r.n; i++ {
		nb[i] = *r.at(i)
	}
	r.buf, r.head = nb, 0
}

func (r *srRing) popFront() {
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
}

// track fills in sm's running delivered count and updates the fast
// window's sortedness flag and airtime run, before sm is pushed onto an
// unbounded ring.
func (r *srRing) track(sm *srSample) {
	sm.okBefore = r.delivered
	if sm.ok {
		r.delivered++
	}
	if r.n > 0 && !(sm.time >= r.at(r.n-1).time) {
		r.unsorted = true
	}
	if bits := math.Float64bits(sm.airtime); bits != r.sumAir || len(r.sums) == 0 {
		r.sumAir, r.sums, r.run = bits, append(r.sums[:0], 0), 0
	}
	r.run++
}

// sum returns sums[m], extending the memo as far as m.
func (r *srRing) sum(m int) float64 {
	air := math.Float64frombits(r.sumAir)
	for len(r.sums) <= m {
		r.sums = append(r.sums, r.sums[len(r.sums)-1]+air)
	}
	return r.sums[m]
}

// NewSampleRate builds a SampleRate instance.
func NewSampleRate(rates []rate.Rate, lossless []float64, rng Intner) *SampleRate {
	return &SampleRate{
		Rates:           rates,
		Window:          1.0,
		ProbeEvery:      10,
		LosslessAirtime: lossless,
		MaxConsecFail:   4,
		Rng:             rng,
		rings:           make([]srRing, len(rates)),
		consecFail:      make([]int, len(rates)),
		cands:           make([]int, 0, len(rates)),
	}
}

// Name implements Adapter.
func (s *SampleRate) Name() string { return "SampleRate" }

// WantRTS implements Adapter.
func (s *SampleRate) WantRTS() bool { return false }

// avgTxTime returns the average airtime per delivered frame at rate i over
// the window ending at now; +Inf if nothing was delivered, and the
// optimistic lossless airtime if the rate is untried in the window.
//
// On an unbounded ring whose times never went backwards it returns
// avgTxTimeScan's bits in O(log n): the samples the scan would skip are a
// prefix, the delivered count is a difference of running counts, and the
// airtime total is the same additions in the same order, taken from the
// memo when every in-window sample shares the newest airtime.
func (s *SampleRate) avgTxTime(i int, now float64) float64 {
	r := &s.rings[i]
	if s.WindowCap != 0 || r.unsorted {
		return s.avgTxTimeScan(i, now)
	}
	winStart := now - s.Window
	lo, hi := 0, r.n // first sample the scan would count
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.at(mid).time < winStart {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	m := r.n - lo
	if m == 0 {
		return s.LosslessAirtime[i] // optimistic: untried rates look good
	}
	ok := r.delivered - r.at(lo).okBefore
	if ok == 0 {
		return math.Inf(1)
	}
	var total float64
	if m <= r.run {
		total = r.sum(m)
	} else {
		for k := lo; k < r.n; k++ {
			total += r.at(k).airtime
		}
	}
	return total / float64(ok)
}

// avgTxTimeScan is avgTxTime by a full scan of the ring: the path for
// bounded rings and for rings whose times went backwards, and the
// reference the fast window is tested against.
func (s *SampleRate) avgTxTimeScan(i int, now float64) float64 {
	var total float64
	n, ok := 0, 0
	r := &s.rings[i]
	for k := 0; k < r.n; k++ {
		sm := r.at(k)
		if sm.time < now-s.Window {
			continue
		}
		n++
		total += sm.airtime
		if sm.ok {
			ok++
		}
	}
	if n == 0 {
		return s.LosslessAirtime[i] // optimistic: untried rates look good
	}
	if ok == 0 {
		return math.Inf(1)
	}
	return total / float64(ok)
}

// NextRate implements Adapter: normally the best-metric rate; every
// ProbeEvery-th frame, a random different rate whose lossless transmission
// time beats the current best average (Bicket's sampling criterion).
//
// The consecutive-failure rule gates only *sampling*: a rate that failed
// MaxConsecFail times in a row is not probed, but the best-metric choice
// is purely window-driven — a collapsing rate is abandoned when its
// delivered-airtime metric goes bad, which takes on the order of the
// averaging window. That window-bound sluggishness is SampleRate's
// defining behaviour in Figure 15.
func (s *SampleRate) NextRate(now float64) int {
	best, bestT := 0, math.Inf(1)
	for i := range s.Rates {
		if t := s.avgTxTime(i, now); t < bestT {
			best, bestT = i, t
		}
	}
	s.frameCount++
	if s.ProbeEvery > 0 && s.frameCount%uint64(s.ProbeEvery) == 0 {
		// Candidate probes: rates other than best whose lossless time is
		// under the current best average (could conceivably do better)
		// and that aren't failing consecutively.
		cands := s.cands[:0]
		for i := range s.Rates {
			if i == best || s.consecFail[i] >= s.MaxConsecFail {
				continue
			}
			if s.LosslessAirtime[i] < bestT {
				cands = append(cands, i)
			}
		}
		s.cands = cands
		if len(cands) > 0 {
			s.lastProbe = cands[s.Rng.Intn(len(cands))]
			return s.lastProbe
		}
	}
	return best
}

// OnResult implements Adapter.
func (s *SampleRate) OnResult(res Result) {
	i := res.RateIndex
	if i < 0 || i >= len(s.Rates) {
		return
	}
	r := &s.rings[i]
	sm := srSample{time: res.Time, airtime: res.Airtime, ok: res.Delivered}
	if s.WindowCap == 0 {
		r.track(&sm)
	}
	r.push(sm, s.WindowCap)
	// Expire samples outside the window to bound memory.
	cut := res.Time - 2*s.Window
	for r.n > 0 && r.at(0).time < cut {
		r.popFront()
	}
	if res.Delivered {
		s.consecFail[i] = 0
	} else {
		s.consecFail[i]++
	}
	// If every rate is locked out, forgive.
	all := true
	for j := range s.consecFail {
		if s.consecFail[j] < s.MaxConsecFail {
			all = false
			break
		}
	}
	if all {
		for j := range s.consecFail {
			s.consecFail[j] = 0
		}
	}
}
