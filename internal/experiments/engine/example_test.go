package engine_test

import (
	"fmt"

	"softrate/internal/experiments/engine"
)

// A sweep over independent parameter points: each point is one trial,
// results come back in point order no matter how many workers run.
func ExampleMap() {
	snrs := []float64{5, 10, 15, 20}
	bers := engine.Map(4, len(snrs), func(i int) float64 {
		// Stand-in for a Monte-Carlo run at snrs[i]; a real trial would
		// build its channel and PHY from a seed derived from i.
		return 1 / (snrs[i] * snrs[i])
	})
	for i, b := range bers {
		fmt.Printf("%2.0f dB -> %.4f\n", snrs[i], b)
	}
	// Output:
	//  5 dB -> 0.0400
	// 10 dB -> 0.0100
	// 15 dB -> 0.0044
	// 20 dB -> 0.0025
}
