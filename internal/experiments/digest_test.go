package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"softrate/internal/cpufeat"
)

// figureDigests pins the SHA-256 of every registered experiment's
// tinyRender text. A change that must keep the figures' bits (a speed-up,
// a refactor) leaves this table alone; a model change updates it and says
// which ids moved and why.
var figureDigests = map[string]string{
	"ablation-decoder":  "d0f755e5fc4e0e2953242bdb10a2fc281ea82f3f66b24270c8f8309895ab208f",
	"ablation-excision": "23da9dbda57cb4872605263403c9c8ffeaf669de2775baff5d69e160533f4144",
	"ablation-harq":     "2ce43263026a453fd791ed8d959fbf2809e59a1ccca268666300d1f23f9ca22a",
	"ablation-jumps":    "3850d8aa34bc82fe744ae5e8a94274bee004576e0a798db4950f6a9741595ffa",
	"ablation-silent":   "476457d3135fac6762e636913fc8da9d8a6cbcf658fc2c82523469035b33ddd3",
	"fig1":              "4b73ecc22080ff139108cb46d162fe2082285255b638b983ec26c7821141b424",
	"fig10":             "93122a98e91d7b1ad16ebf69a997187d9b3af088b33db6d70f0e0b5d2f656d2e",
	"fig11":             "a3909b1f9188a0271269c38954ac5ccf1c910329a2ceff1b982a3ce3eb78d00d",
	"fig13":             "1586b3637acd776dd271835d850473c899bf414e63867b0aacf4ad74fa7bc2bf",
	"fig14":             "c9ce0065756af547089c2c1bd404dac1cd12786fe97005301e8c583a7e3fc661",
	"fig15":             "f385bed446ef1709fc0f3f4690b344291765c7172399448466de4fbba85161b4",
	"fig16":             "5dec9dca24e9a7bb14419f8735bf5a9fdfe307be2da17e782e2a92c5e4cab6f6",
	"fig17":             "c78b09d085c36642ea3887abad374b3640bd0f47753ae9883cf44504303e4835",
	"fig18":             "350da8b3c5815bd052b951ab95684c80d63eb04cdfd203476948ebaf7120f67f",
	"fig3":              "3bcecd4ca2660e4848339a6b7cb5d7ba44dcfd50ba94fda8f257c2cab2ba1e23",
	"fig4":              "513b46acfba7678fae2adf6415120cbdd04aef1e73b5f293c38a32764d786bba",
	"fig5":              "935254300138d4cb9eecede2e2982ff3ef9453237470cc05f9da610d7fd8f62a",
	"fig7":              "c2896c78ded665e8cd0ddd1e4dcc5ed876db0c41d00e65f7d5c7eafc5c914835",
	"fig8":              "edbb545384b946ecfd7dac643b949f4bcc682fe72f8701a8b634a07b67610026",
	"fig9":              "d803121bf5d33b7d2b66caf62e3481fe1df1cabffb0a935e42452f871d9153ef",
	"tab1":              "acfa5c319d8c3b7477a5b2b2a6ce2392a3dd3e47cd56164cf7a84270a65237ab",
	"tab2":              "1637ef4c3605d2d1db60d2742ea6284a5ff774464eec13aa9f21cf45278c486a",
	"tab3":              "8341a2cbb05f329990246c211ea3e5b93e844741e41a54a22de5edd847338ac4",
}

// TestFigureDigests renders every registered id at tiny() (the shared
// tinyRender, so the cost is the hashing) and compares its digest with
// figureDigests. On a mismatch it prints the whole table as it now reads.
func TestFigureDigests(t *testing.T) {
	skipUnlessPinnedFloat(t)
	if testing.Short() {
		t.Skip("figure digests render every experiment; skipped in -short mode")
	}
	var got strings.Builder
	bad := 0
	for _, id := range IDs() {
		_, text := tinyRender(t, id)
		sum := sha256.Sum256(text)
		d := hex.EncodeToString(sum[:])
		fmt.Fprintf(&got, "\t%q: %q,\n", id, d)
		if figureDigests[id] != d {
			t.Errorf("%s: digest %s, pinned %q", id, d, figureDigests[id])
			bad++
		}
	}
	if len(figureDigests) != len(IDs()) {
		t.Errorf("%d pinned digests for %d registered experiments", len(figureDigests), len(IDs()))
		bad++
	}
	if bad > 0 {
		t.Logf("digests as rendered now:\n%s", got.String())
	}
}

// skipUnlessPinnedFloat skips a bit-pinning test where the pinned bits
// need not hold.
func skipUnlessPinnedFloat(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" || !cpufeat.AVX2 || !cpufeat.FMA {
		t.Skip("digests are pinned on amd64 with AVX2 and FMA: without FMA math.Exp takes another code path, and other architectures may fuse multiply-adds")
	}
}
