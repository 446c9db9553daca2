package abs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"fedgpo/internal/fl"
)

// wantABSBits is the SHA-256 of a fixed-seed 200-round ABS run: the
// float64 bits of the Q-network and target parameters (W1, b1, W2, b2
// order) followed by every round's MeanB. The golden table digests
// round printed figures, so they cannot see last-bit drift in the DQN;
// this pin can. It must never change with a refactor of the network.
const wantABSBits = "91228964e068b8e833399641af0c5ae4834c365876d7a25fca740edfe7a1b9d1"

// netParams returns the Q-network and target parameters, each as one
// flat [W1 | b1 | W2 | b2] slice.
func netParams(c *Controller) (q, target []float64) {
	return c.qNet.w, c.target
}

func TestABSBitsPinned(t *testing.T) {
	c := New(DefaultConfig())
	res := fl.Run(testConfig(), c)
	h := sha256.New()
	put := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	q, target := netParams(c)
	for _, v := range q {
		put(v)
	}
	for _, v := range target {
		put(v)
	}
	for _, r := range res.History {
		put(r.MeanB)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != wantABSBits {
		t.Errorf("ABS parameter and MeanB bits drifted:\n got %s\nwant %s", got, wantABSBits)
	}
}
