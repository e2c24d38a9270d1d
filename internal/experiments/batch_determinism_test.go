package experiments

import (
	"bytes"
	"testing"
)

// TestBatchDecodeByteIdentical pins the lockstep batch decoder's
// end-to-end contract at the harness level: the rendered tables of the
// PHY-driven experiments must be byte-identical at batch 1 on one worker
// (frame by frame, which TestQueueReceiveMatchesSequential in phy ties to
// per-frame ReceiveWS), at the default batch on one worker, and at an odd
// batch size that forces ragged final flushes on eight workers.
// TestParallelByteIdentical covers the default batch on eight workers, so
// together they guarantee the batch size changes nothing but speed.
func TestBatchDecodeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("batch determinism tests skipped in -short mode")
	}
	defaultBatch := decodeBatch
	t.Cleanup(func() { decodeBatch = defaultBatch })
	for _, id := range []string{"fig7", "fig9", "fig10"} {
		t.Run(id, func(t *testing.T) {
			o := tiny()
			o.Workers = 1
			decodeBatch = 1
			ref := render(t, id, o)
			for _, c := range []struct{ batch, workers int }{{defaultBatch, 1}, {5, 8}} {
				decodeBatch, o.Workers = c.batch, c.workers
				if got := render(t, id, o); !bytes.Equal(ref, got) {
					t.Errorf("%s: output differs between batch 1 and batch %d at Workers=%d\n--- batch 1 ---\n%s\n--- batch %d ---\n%s",
						id, c.batch, c.workers, ref, c.batch, got)
				}
			}
		})
	}
}
