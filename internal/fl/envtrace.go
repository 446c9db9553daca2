package fl

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"fedgpo/internal/device"
	"fedgpo/internal/interfere"
	"fedgpo/internal/netsim"
	"fedgpo/internal/stats"
)

// envKey identifies one environment trace. A run's interference
// draws, its standard-normal bandwidth draws and its
// participant-selection permutations read nothing but these three
// values — never the controller, and never the channel, which maps a
// draw to a bandwidth only when a run reads it (see traceView) — so
// every run with an equal key sees the same draws, round for round,
// whatever its channel.
type envKey struct {
	seed int64
	n    int
	intf interfere.Model
}

// traceChunkRounds is how many rounds one trace chunk holds. A trace
// grows a chunk at a time and never copies recorded rounds.
const traceChunkRounds = 8

// envChunk holds traceChunkRounds consecutive recorded rounds, each
// laid out round-major: round j's bandwidth draws are z[j*n:(j+1)*n].
// A round is immutable once recorded.
type envChunk struct {
	// z is each device's standard-normal bandwidth draw; a run's
	// channel maps it to the device's bandwidth
	// (netsim.Channel.Bandwidth), and the signal band is a pure
	// function of that (netsim.ConditionAt).
	z []float64
	// perm is the round's selection permutation: the participants of a
	// round that selects k devices are perm[:k].
	perm []uint16
	// active marks, one bit per device in words words per round, the
	// devices whose interference draw is non-zero; intf[j] packs those
	// devices' (CPU, Mem) pairs in device order. rank holds, per active
	// word, how many devices the round's earlier words mark, so a
	// device's pair is found without a scan. All three stay nil (and
	// words 0) when the interference model is inactive.
	words  int
	active []uint64
	rank   []uint16
	intf   [traceChunkRounds][]float64
	// interfered counts, per round, the devices with a non-zero
	// co-runner load: Observation.Interfered (a fleet has at most
	// maxFleet devices). The bad-link count depends on the channel, so
	// it lives in the trace's linkCounts.
	interfered [traceChunkRounds]uint16
}

// linkCounts holds one channel's bad-link counts over a trace: bad[r]
// counts round r's devices whose link under ch is not Regular
// (Observation.BadLinks). A round is counted once, under the trace's
// lock, when the first view of ch reaches it; bad only grows, and a
// counted round never changes.
type linkCounts struct {
	ch  netsim.Channel
	bad []uint16
}

// envTrace is the recorded environment of one envKey: every round any
// run has reached so far, plus the streams that draw the rounds after
// them. The first run to reach a round draws it; every later run
// replays it, through its own channel.
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
	links    []*linkCounts // one per channel any view has read through
	perm     []int         // PermInto scratch
	packed   []float64     // one round's interference pairs, before copying
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
// device's interference then standard-normal bandwidth draw on the
// environment stream, then a full permutation on the selection stream.
// Callers hold t.mu.
func (t *envTrace) record() {
	n, off := t.key.n, t.rounds%traceChunkRounds
	if off == 0 {
		c := &envChunk{
			z:    make([]float64, traceChunkRounds*n),
			perm: make([]uint16, traceChunkRounds*n),
		}
		size := traceChunkRounds * n * 10
		if t.words > 0 {
			c.words = t.words
			c.active = make([]uint64, traceChunkRounds*t.words)
			c.rank = make([]uint16, traceChunkRounds*t.words)
			size += traceChunkRounds * t.words * 10
		}
		t.chunks = append(t.chunks, c)
		t.bytes.Add(int64(size))
	}
	c := t.chunks[len(t.chunks)-1]
	z := c.z[off*n : (off+1)*n]
	if t.words > 0 {
		active := c.active[off*t.words : (off+1)*t.words]
		t.packed = t.packed[:0]
		for i := range z {
			in := t.key.intf.Sample(t.env)
			z[i] = t.env.Norm()
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
		below := 0
		for w, word := range active {
			c.rank[off*t.words+w] = uint16(below)
			below += bits.OnesCount64(word)
		}
	} else {
		for i := range z {
			// An inactive model draws nothing, so only the bandwidth
			// draw touches the stream.
			z[i] = t.env.Norm()
		}
	}
	t.sel.PermInto(t.perm)
	perm := c.perm[off*n : (off+1)*n]
	for i, v := range t.perm {
		perm[i] = uint16(v)
	}
	t.rounds++
}

// linksFor returns the trace's bad-link counts under ch, starting
// them empty the first time ch is asked for. Callers hold t.mu.
func (t *envTrace) linksFor(ch netsim.Channel) *linkCounts {
	for _, l := range t.links {
		if l.ch == ch {
			return l
		}
	}
	l := &linkCounts{ch: ch}
	t.links = append(t.links, l)
	return l
}

// count counts the bad links of round len(l.bad), which t has
// recorded, under l's channel. Callers hold t.mu.
func (t *envTrace) count(l *linkCounts) {
	n, r := t.key.n, len(l.bad)
	c, off := t.chunks[r/traceChunkRounds], r%traceChunkRounds
	bad := 0
	for _, z := range c.z[off*n : (off+1)*n] {
		if !netsim.ConditionAt(l.ch.Bandwidth(z)).Regular() {
			bad++
		}
	}
	before := cap(l.bad)
	l.bad = append(l.bad, uint16(bad))
	t.bytes.Add(int64(2 * (cap(l.bad) - before)))
}

// traceView is one run's window onto a trace through the run's
// channel: the chunks, the channel's bad-link counts and the round
// count it last saw under the trace's lock. Rounds below rounds are
// recorded and counted, hence immutable, so the run reads them without
// locking.
type traceView struct {
	t      *envTrace
	links  *linkCounts // t's counts under the run's channel
	chunks []*envChunk
	bad    []uint16
	rounds int
}

// reset points the view at t through channel ch, seeing nothing yet.
func (v *traceView) reset(t *envTrace, ch netsim.Channel) {
	t.mu.Lock()
	l := t.linksFor(ch)
	t.mu.Unlock()
	*v = traceView{t: t, links: l}
}

// round returns the chunk holding 0-based round r and r's offset in
// it, recording the round first if no run has reached it and counting
// its bad links if no view of the channel has.
func (v *traceView) round(r int) (*envChunk, int) {
	if r >= v.rounds {
		t := v.t
		t.mu.Lock()
		for t.rounds <= r {
			t.record()
		}
		for len(v.links.bad) <= r {
			t.count(v.links)
		}
		v.chunks, v.bad, v.rounds = t.chunks, v.links.bad, len(v.links.bad)
		t.mu.Unlock()
	}
	return v.chunks[r/traceChunkRounds], r % traceChunkRounds
}

// observe returns 0-based round r's device view over the run's static
// table, its selection permutation and its interfered and bad-link
// device counts. It walks no device: State reads each one on demand.
func (v *traceView) observe(r int, static []DeviceState) (devices deviceView, perm []uint16, interfered, badLinks int) {
	c, off := v.round(r)
	n := len(static)
	return deviceView{c: c, off: off, static: static, ch: &v.links.ch}, c.perm[off*n : (off+1)*n], int(c.interfered[off]), int(v.bad[r])
}

// deviceView is one recorded round seen device by device through the
// run's channel: the stochastic fields come from the round's immutable
// trace record, the static ones from the run's table (ClassCount,
// ClassFraction, Samples; its Interference and Network are zero).
type deviceView struct {
	c      *envChunk
	off    int
	static []DeviceState
	ch     *netsim.Channel
}

// read writes device id's state for the round into st: the channel
// maps its bandwidth draw to the link condition, and the active
// bitmap's rank locates its interference pair. Every field of st is
// written.
func (v *deviceView) read(id int, st *DeviceState) {
	c, n := v.c, len(v.static)
	s := &v.static[id]
	st.ClassCount, st.ClassFraction, st.Samples = s.ClassCount, s.ClassFraction, s.Samples
	st.Network = netsim.ConditionAt(v.ch.Bandwidth(c.z[v.off*n+id]))
	st.Interference = device.Interference{}
	if c.words > 0 {
		w := v.off*c.words + id>>6
		bit := uint64(1) << (id & 63)
		if word := c.active[w]; word&bit != 0 {
			j := 2 * (int(c.rank[w]) + bits.OnesCount64(word&(bit-1)))
			pair := c.intf[v.off][j : j+2]
			st.Interference = device.Interference{CPUUsage: pair[0], MemUsage: pair[1]}
		}
	}
}
