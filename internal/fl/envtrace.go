package fl

import (
	"math"
	"sync"
	"sync/atomic"

	"fedgpo/internal/device"
	"fedgpo/internal/interfere"
	"fedgpo/internal/netsim"
	"fedgpo/internal/stats"
)

// envKey identifies one run environment. A run's interference and
// bandwidth draws and its participant-selection permutations read
// nothing but these four values — never the controller — so every run
// with an equal key sees the same environment, round for round.
type envKey struct {
	seed int64
	n    int
	intf interfere.Model
	ch   netsim.Channel
}

// traceChunkRounds is how many rounds one trace chunk holds. A trace
// grows a chunk at a time and never copies recorded rounds.
const traceChunkRounds = 8

// envChunk holds traceChunkRounds consecutive recorded rounds, each
// laid out round-major: round j's bandwidths are bw[j*n:(j+1)*n].
// A round is immutable once recorded.
type envChunk struct {
	// bw is each device's drawn bandwidth; the signal band is a pure
	// function of it (netsim.ConditionAt).
	bw []float64
	// perm is the round's selection permutation: the participants of a
	// round that selects k devices are perm[:k].
	perm []uint16
	// active marks, one bit per device, the devices whose interference
	// draw is non-zero; intf[j] packs those devices' (CPU, Mem) pairs
	// in device order. Both stay nil when the interference model is
	// inactive.
	active []uint64
	intf   [traceChunkRounds][]float64
	// interfered and badLinks count, per round, the devices with a
	// non-zero co-runner load and those whose link is not Regular:
	// Observation's fleet counts (a fleet has at most maxFleet devices).
	interfered, badLinks [traceChunkRounds]uint16
}

// envTrace is the recorded environment of one envKey: every round any
// run has reached so far, plus the streams that draw the rounds after
// them. The first run to reach a round draws it; every later run
// replays it.
type envTrace struct {
	key envKey
	// words is the active bitmap's length per round (0 when the
	// interference model is inactive).
	words int
	// accSeed seeds a run's convergence-model stream: the third split
	// of the seed's root stream, after selection and environment.
	accSeed int64

	// bytes is the owning memo's footprint counter.
	bytes *atomic.Int64

	mu       sync.Mutex
	sel, env *stats.RNG
	chunks   []*envChunk
	rounds   int
	perm     []int     // PermInto scratch
	packed   []float64 // one round's interference pairs, before copying
}

func newEnvTrace(key envKey, bytes *atomic.Int64) *envTrace {
	root := stats.NewRNG(key.seed)
	t := &envTrace{key: key, bytes: bytes, perm: make([]int, key.n)}
	t.sel = root.Split()
	t.env = root.Split()
	t.accSeed = root.Int63()
	if key.intf.Active() {
		t.words = (key.n + 63) / 64
	}
	return t
}

// record draws round t.rounds, exactly as a live run would: every
// device's interference then bandwidth on the environment stream, then
// a full permutation on the selection stream. Callers hold t.mu.
func (t *envTrace) record() {
	n, off := t.key.n, t.rounds%traceChunkRounds
	if off == 0 {
		c := &envChunk{
			bw:   make([]float64, traceChunkRounds*n),
			perm: make([]uint16, traceChunkRounds*n),
		}
		size := traceChunkRounds * n * 10
		if t.words > 0 {
			c.active = make([]uint64, traceChunkRounds*t.words)
			size += traceChunkRounds * t.words * 8
		}
		t.chunks = append(t.chunks, c)
		t.bytes.Add(int64(size))
	}
	c := t.chunks[len(t.chunks)-1]
	bw := c.bw[off*n : (off+1)*n]
	if t.words > 0 {
		active := c.active[off*t.words : (off+1)*t.words]
		t.packed = t.packed[:0]
		for i := range bw {
			in := t.key.intf.Sample(t.env)
			bw[i] = t.key.ch.Sample(t.env).BandwidthMbps
			if math.Float64bits(in.CPUUsage)|math.Float64bits(in.MemUsage) != 0 {
				active[i>>6] |= 1 << (i & 63)
				t.packed = append(t.packed, in.CPUUsage, in.MemUsage)
			}
			if in.CPUUsage > 0 || in.MemUsage > 0 {
				c.interfered[off]++
			}
		}
		if len(t.packed) > 0 {
			c.intf[off] = append([]float64(nil), t.packed...)
			t.bytes.Add(int64(8 * len(t.packed)))
		}
	} else {
		for i := range bw {
			// An inactive model draws nothing, so only the channel
			// touches the stream.
			bw[i] = t.key.ch.Sample(t.env).BandwidthMbps
		}
	}
	for _, v := range bw {
		if !netsim.ConditionAt(v).Regular() {
			c.badLinks[off]++
		}
	}
	t.sel.PermInto(t.perm)
	perm := c.perm[off*n : (off+1)*n]
	for i, v := range t.perm {
		perm[i] = uint16(v)
	}
	t.rounds++
}

// traceView is one run's window onto a trace: the chunks and round
// count it last saw under the trace's lock. Rounds below rounds are
// immutable, so the run reads them without locking.
type traceView struct {
	t      *envTrace
	chunks []*envChunk
	rounds int
}

// reset points the view at t, seeing nothing yet.
func (v *traceView) reset(t *envTrace) {
	v.t, v.chunks, v.rounds = t, nil, 0
}

// round returns the chunk holding 0-based round r and r's offset in
// it, recording the round first if no run has reached it.
func (v *traceView) round(r int) (*envChunk, int) {
	if r >= v.rounds {
		t := v.t
		t.mu.Lock()
		for t.rounds <= r {
			t.record()
		}
		v.chunks, v.rounds = t.chunks, t.rounds
		t.mu.Unlock()
	}
	return v.chunks[r/traceChunkRounds], r % traceChunkRounds
}

// observe writes 0-based round r's environment into states' stochastic
// fields and returns the round's selection permutation and its
// interfered and bad-link device counts. states holds one entry per
// device; with an inactive interference model its Interference fields
// are left as they are (zero, from beginRun).
func (v *traceView) observe(r int, states []DeviceState) (perm []uint16, interfered, badLinks int) {
	c, off := v.round(r)
	n := len(states)
	for i, bw := range c.bw[off*n : (off+1)*n] {
		states[i].Network = netsim.ConditionAt(bw)
	}
	if w := v.t.words; w > 0 {
		active, vals := c.active[off*w:(off+1)*w], c.intf[off]
		for i := range states {
			if active[i>>6]&(1<<(i&63)) == 0 {
				states[i].Interference = device.Interference{}
				continue
			}
			states[i].Interference = device.Interference{CPUUsage: vals[0], MemUsage: vals[1]}
			vals = vals[2:]
		}
	}
	return c.perm[off*n : (off+1)*n], int(c.interfered[off]), int(c.badLinks[off])
}
