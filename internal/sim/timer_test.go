package sim

import (
	"math"
	"math/rand"
	"testing"
)

// oneShot is a resettable one-shot timer: Timer, or refTimer.
type oneShot interface {
	Reset(delay float64)
	Stop()
}

// refTimer is the timer Timer must behave as: every arm queues a fresh
// closure, and a generation count turns the superseded ones into no-ops.
type refTimer struct {
	eng   *Engine
	fn    func()
	gen   int
	armed bool
}

func (t *refTimer) Reset(delay float64) {
	t.gen++
	t.armed = true
	gen := t.gen
	t.eng.Schedule(delay, func() {
		if t.armed && gen == t.gen {
			t.armed = false
			t.fn()
		}
	})
}

func (t *refTimer) Stop() { t.armed = false }

// timerLog runs prog on a fresh engine with three timers from mk and logs
// every callback as (time, seq, id): ids 0, 1, … are plain events and -1,
// -2, -3 the timers. Each callback runs the program's next two ops: arm a
// timer, stop one, or schedule another plain event. Delays are multiples
// of 1/8, so deadlines grow, shrink and collide with other events.
func timerLog(prog []byte, mk func(e *Engine, fn func()) oneShot) []float64 {
	var e Engine
	var log []float64
	timers := make([]oneShot, 3)
	pos, events := 0, 0
	var step func(id int)
	schedule := func(delay float64) {
		id := events
		events++
		e.Schedule(delay, func() { step(id) })
	}
	step = func(id int) {
		log = append(log, e.Now(), float64(e.cur), float64(id))
		for n := 0; n < 2 && pos+1 < len(prog); n++ {
			op, arg := prog[pos], prog[pos+1]
			pos += 2
			delay := float64(arg%24)*0.125 - 0.25 // a few are negative
			switch t := timers[int(op/4)%len(timers)]; op % 4 {
			case 0, 1:
				t.Reset(delay)
			case 2:
				t.Stop()
			default:
				schedule(delay)
			}
		}
	}
	for k := range timers {
		id := -1 - k
		timers[k] = mk(&e, func() { step(id) })
	}
	for pos+1 < len(prog) {
		schedule(0)
		e.Run(e.Now() + 1.5)
		log = append(log, e.Now(), -1, math.NaN())
	}
	e.Run(math.Inf(1))
	return log
}

func newTimer(e *Engine, fn func()) oneShot { return NewTimer(e, fn) }

func newRefTimer(e *Engine, fn func()) oneShot { return &refTimer{eng: e, fn: fn} }

func checkTimerProgram(t *testing.T, prog []byte) {
	t.Helper()
	got, want := timerLog(prog, newTimer), timerLog(prog, newRefTimer)
	if len(got) != len(want) {
		t.Fatalf("%d log entries, reference %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("entry %d (callback %d, field %d) is %v, reference %v", i, i/3, i%3, got[i], want[i])
		}
	}
}

func randomProgram(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	prog := make([]byte, 2*(1+rng.Intn(200)))
	rng.Read(prog)
	return prog
}

func FuzzTimerMatchesReference(f *testing.F) {
	for seed := int64(0); seed < 64; seed++ {
		f.Add(randomProgram(seed))
	}
	f.Fuzz(checkTimerProgram)
}

// TestTimerKeepsOneWakeUp pins what Timer saves: an RTO re-armed on
// every ACK leaves one event queued, not one per arm.
func TestTimerKeepsOneWakeUp(t *testing.T) {
	var e Engine
	fired := 0
	tm := NewTimer(&e, func() { fired++ })
	var ack func()
	acks := 0
	ack = func() {
		tm.Reset(0.2)
		if acks++; acks < 100 {
			e.Schedule(0.01, ack)
		}
		if n := e.Pending(); n > 2 {
			t.Fatalf("%d events queued after %d arms, want at most 2", n, acks)
		}
	}
	e.Schedule(0, ack)
	e.RunAll()
	if fired != 1 {
		t.Fatalf("timer fired %d times, want 1", fired)
	}
	if want := 0.99 + 0.2; math.Abs(e.Now()-want) > 1e-9 {
		t.Fatalf("timer fired at %v, want %v", e.Now(), want)
	}
}

func TestTimerResetDoesNotAllocate(t *testing.T) {
	var e Engine
	tm := NewTimer(&e, func() {})
	batch := func() {
		for i := 0; i < 64; i++ {
			tm.Reset(float64(i%5) * 0.01)
			e.Run(e.Now() + 0.003)
		}
		e.Run(e.Now() + 1)
	}
	batch()
	if n := testing.AllocsPerRun(100, batch); n != 0 {
		t.Fatalf("%v allocations per warm Reset+Run batch, want 0", n)
	}
}

func TestFIFOMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q FIFO[int]
	var ref []int
	for i := 0; i < 10000; i++ {
		if rng.Intn(3) > 0 || len(ref) == 0 {
			q.Push(i)
			ref = append(ref, i)
		} else {
			if q.Front() != ref[0] {
				t.Fatalf("step %d: front %d, want %d", i, q.Front(), ref[0])
			}
			if v := q.Pop(); v != ref[0] {
				t.Fatalf("step %d: popped %d, want %d", i, v, ref[0])
			}
			ref = ref[1:]
		}
		if q.Len() != len(ref) {
			t.Fatalf("step %d: length %d, want %d", i, q.Len(), len(ref))
		}
	}
}
