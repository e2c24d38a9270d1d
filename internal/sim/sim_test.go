package sim

import (
	"container/heap"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestEventsFireInOrder(t *testing.T) {
	var e Engine
	var got []float64
	for _, d := range []float64{0.5, 0.1, 0.9, 0.3} {
		d := d
		e.Schedule(d, func() { got = append(got, e.Now()) })
	}
	e.RunAll()
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("events out of order: %v", got)
	}
	if len(got) != 4 {
		t.Fatalf("fired %d events, want 4", len(got))
	}
}

func TestFIFOTieBreak(t *testing.T) {
	var e Engine
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(1.0, func() { got = append(got, i) })
	}
	e.RunAll()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events reordered: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	var e Engine
	var trace []string
	e.Schedule(1, func() {
		trace = append(trace, "a")
		e.Schedule(1, func() { trace = append(trace, "c") })
		e.Schedule(0.5, func() { trace = append(trace, "b") })
	})
	e.RunAll()
	want := "abc"
	var got string
	for _, s := range trace {
		got += s
	}
	if got != want {
		t.Fatalf("trace %q, want %q", got, want)
	}
	if e.Now() != 2 {
		t.Fatalf("final time %v, want 2", e.Now())
	}
}

func TestRunUntilStopsEarly(t *testing.T) {
	var e Engine
	fired := 0
	e.Schedule(1, func() { fired++ })
	e.Schedule(5, func() { fired++ })
	e.Run(2)
	if fired != 1 {
		t.Fatalf("fired %d, want 1", fired)
	}
	if e.Now() != 2 {
		t.Fatalf("clock %v, want 2", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending %d, want 1", e.Pending())
	}
	e.Run(10)
	if fired != 2 {
		t.Fatal("second event never fired")
	}
}

func TestPastSchedulingClamps(t *testing.T) {
	var e Engine
	e.Schedule(1, func() {
		e.At(0.5, func() {
			if e.Now() != 1 {
				t.Errorf("past event fired at %v, want clamped to 1", e.Now())
			}
		})
	})
	e.Schedule(-5, func() {
		if e.Now() != 0 {
			t.Errorf("negative delay fired at %v", e.Now())
		}
	})
	e.RunAll()
}

func TestClockNeverGoesBackwards(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var e Engine
		last := -1.0
		ok := true
		var spawn func()
		n := 0
		spawn = func() {
			if e.Now() < last {
				ok = false
			}
			last = e.Now()
			if n < 100 {
				n++
				e.Schedule(rng.Float64(), spawn)
			}
		}
		for i := 0; i < 5; i++ {
			e.Schedule(rng.Float64(), spawn)
		}
		e.RunAll()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		var e Engine
		rng := rand.New(rand.NewSource(42))
		var times []float64
		var spawn func()
		n := 0
		spawn = func() {
			times = append(times, e.Now())
			if n < 200 {
				n++
				e.Schedule(rng.Float64()*0.1, spawn)
			}
		}
		e.Schedule(0, spawn)
		e.RunAll()
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("non-deterministic event count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at event %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestAtPanicsOnNaN(t *testing.T) {
	for _, schedule := range []func(e *Engine){
		func(e *Engine) { e.At(math.NaN(), func() {}) },
		func(e *Engine) { e.Schedule(math.NaN(), func() {}) },
	} {
		var e Engine
		e.Schedule(0.1, func() {})
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "NaN") {
					t.Errorf("panic %q, want one naming the NaN time", msg)
				}
			}()
			schedule(&e)
		}()
		if e.Pending() != 1 {
			t.Errorf("pending %d after the rejected event, want 1", e.Pending())
		}
	}
}

// refQueue is the container/heap queue the engine used to run on: the
// reference its typed heap must match event for event.
type refQueue []*event

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// refEngine is Engine over refQueue.
type refEngine struct {
	now float64
	seq int64
	pq  refQueue
}

func (e *refEngine) Now() float64 { return e.now }

func (e *refEngine) Schedule(delay float64, fn func()) {
	if delay < 0 {
		delay = 0
	}
	t := e.now + delay
	e.seq++
	heap.Push(&e.pq, &event{key{t, e.seq}, fn})
}

func (e *refEngine) Run(until float64) {
	for len(e.pq) > 0 && e.pq[0].time <= until {
		next := heap.Pop(&e.pq).(*event)
		e.now = next.time
		next.fn()
	}
	if e.now < until {
		e.now = until
	}
}

type scheduler interface {
	Now() float64
	Schedule(delay float64, fn func())
	Run(until float64)
}

// firingLog drives eng through a random program from seed — delays drawn
// from a few values so ties are common, handlers that schedule more
// events, negative delays, and a series of Run cut-offs — and logs each
// firing's event id and Now().
func firingLog(eng scheduler, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	delays := []float64{0, 0, 0.25, 0.5, 1, 1, -1, 0.125}
	var log []float64
	next := 0
	var spawn func(depth int)
	spawn = func(depth int) {
		id := next
		next++
		d := delays[rng.Intn(len(delays))]
		if rng.Intn(4) == 0 {
			d = rng.Float64() * 2
		}
		eng.Schedule(d, func() {
			log = append(log, float64(id), eng.Now())
			for k := rng.Intn(3); k > 0 && depth < 6; k-- {
				spawn(depth + 1)
			}
		})
	}
	until := 0.0
	for round := 0; round < 8; round++ {
		for k := rng.Intn(20); k > 0; k-- {
			spawn(0)
		}
		until += rng.Float64() * 1.5
		eng.Run(until)
		log = append(log, -1, eng.Now())
	}
	eng.Run(math.Inf(1))
	return log
}

func TestHeapMatchesContainerHeap(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		got := firingLog(&Engine{}, seed)
		want := firingLog(&refEngine{}, seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d log entries, reference %d", seed, len(got), len(want))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("seed %d: entry %d is %v, reference %v", seed, i, got[i], want[i])
			}
		}
	}
}

func TestScheduleAndRunDoNotAllocate(t *testing.T) {
	var e Engine
	fn := func() {}
	batch := func() {
		for i := 0; i < 64; i++ {
			e.Schedule(float64(i%7)*0.01, fn)
		}
		e.Run(e.Now() + 1)
	}
	batch() // grow the queue to its working depth
	if n := testing.AllocsPerRun(100, batch); n != 0 {
		t.Fatalf("%v allocations per warm Schedule+Run batch, want 0", n)
	}
}
