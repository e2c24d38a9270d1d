package engine

import (
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrderIndependentOfCompletion(t *testing.T) {
	// Later trials finish first; results must still land at their index.
	n := 32
	got := Map(8, n, func(i int) int {
		time.Sleep(time.Duration(n-i) * time.Microsecond)
		return i * i
	})
	for i, v := range got {
		if v != i*i {
			t.Fatalf("got[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapRunsEveryTrialOnce(t *testing.T) {
	n := 100
	var counts [100]int32
	Map(7, n, func(i int) struct{} {
		atomic.AddInt32(&counts[i], 1)
		return struct{}{}
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("trial %d ran %d times", i, c)
		}
	}
}

func TestMapEdgeCases(t *testing.T) {
	if got := Map(4, 0, func(i int) int { return i }); len(got) != 0 {
		t.Fatalf("n=0: got %v", got)
	}
	// workers > n and workers <= 0 must both work.
	for _, w := range []int{-1, 0, 1, 1000} {
		got := Map(w, 3, func(i int) int { return i + 1 })
		if !reflect.DeepEqual(got, []int{1, 2, 3}) {
			t.Fatalf("workers=%d: got %v", w, got)
		}
	}
}

func TestMapWithBuildsOneStatePerWorker(t *testing.T) {
	var built atomic.Int32
	type scratch struct{ uses int }
	got := MapWith(4, 64, func() *scratch {
		built.Add(1)
		return &scratch{}
	}, func(ws *scratch, i int) int {
		ws.uses++ // exclusive to one worker: no synchronization needed
		return i * 3
	})
	for i, v := range got {
		if v != i*3 {
			t.Fatalf("got[%d] = %d, want %d", i, v, i*3)
		}
	}
	if n := built.Load(); n < 1 || n > 4 {
		t.Fatalf("built %d states for 4 workers, want 1..4", n)
	}
}

func TestMapWithEdgeCases(t *testing.T) {
	if got := MapWith(4, 0, func() int { return 0 }, func(int, int) int { return 1 }); len(got) != 0 {
		t.Fatalf("n=0: got %v", got)
	}
	for _, w := range []int{-1, 0, 1, 1000} {
		got := MapWith(w, 3, func() int { return 10 }, func(s, i int) int { return s + i })
		if !reflect.DeepEqual(got, []int{10, 11, 12}) {
			t.Fatalf("workers=%d: got %v", w, got)
		}
	}
}

func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []int64 {
		return Map(workers, 50, func(i int) int64 {
			rng := rand.New(rand.NewSource(42 + int64(i)))
			var s int64
			for k := 0; k < 100; k++ {
				s += rng.Int63n(1000)
			}
			return s
		})
	}
	want := run(1)
	for _, w := range []int{2, 4, 8, 16} {
		if got := run(w); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d diverged from workers=1", w)
		}
	}
}
