package experiments

import (
	"bytes"
	"testing"
)

// TestBatchDecodeByteIdentical pins the lockstep batch decoder's
// end-to-end contract at the harness level: the rendered tables of the
// PHY-driven experiments must be byte-identical at the default batch on
// one worker (the shared tinyRender), at batch 1 on one worker (frame by
// frame, which TestQueueReceiveMatchesSequential in phy ties to the
// per-frame oracle refReceive), and at an odd batch size that forces ragged final flushes
// on eight workers. TestParallelByteIdentical covers the default batch
// on three workers, so together they guarantee the batch size changes
// nothing but speed.
func TestBatchDecodeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("batch determinism tests skipped in -short mode")
	}
	for _, id := range []string{"fig7", "fig9", "fig10"} {
		t.Run(id, func(t *testing.T) {
			_, ref := tinyRender(t, id)
			t.Cleanup(func() { decodeBatch = defaultDecodeBatch })
			o := tiny()
			for _, c := range []struct{ batch, workers int }{{1, 1}, {5, 8}} {
				decodeBatch, o.Workers = c.batch, c.workers
				if got := render(t, id, o); !bytes.Equal(ref, got) {
					t.Errorf("%s: output differs between batch %d and batch %d at Workers=%d\n--- batch %d ---\n%s\n--- batch %d ---\n%s",
						id, defaultDecodeBatch, c.batch, c.workers, defaultDecodeBatch, ref, c.batch, got)
				}
			}
		})
	}
}
