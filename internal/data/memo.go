package data

import "math/bits"

// deviceSignals are a partition's pure per-device signals: sample
// counts, non-IID degrees, class counts and fractions, and
// class-presence bitsets. Each value is the one the Partition method of
// the same name returns, computed once. They are read-only once built,
// so every run on one partition can share them.
type deviceSignals struct {
	numClasses int
	samples    []int
	degrees    []float64
	classCnt   []int
	classFrac  []float64
	// present holds one class-presence bitset per device, words uint64s
	// each: bit c of device d's set is Counts[d][c] > 0.
	present []uint64
	words   int
}

// newSignals computes p's signals.
func newSignals(p Partition) *deviceSignals {
	n := p.NumDevices()
	s := &deviceSignals{
		numClasses: p.NumClasses,
		samples:    make([]int, n),
		degrees:    make([]float64, n),
		classCnt:   make([]int, n),
		classFrac:  make([]float64, n),
		words:      (p.NumClasses + 63) / 64,
	}
	for d := 0; d < n; d++ {
		s.samples[d] = p.DeviceSamples(d)
		s.degrees[d] = p.NonIIDDegree(d)
		s.classCnt[d] = p.DeviceClassCount(d)
		s.classFrac[d] = p.DeviceClassFraction(d)
	}
	s.present = make([]uint64, n*s.words)
	for d := 0; d < n; d++ {
		set := s.present[d*s.words : (d+1)*s.words]
		for c, cnt := range p.Counts[d] {
			if cnt > 0 {
				set[c/64] |= 1 << (c % 64)
			}
		}
	}
	return s
}

// bytes approximates the signals' heap footprint: the five slices'
// elements plus a fixed allowance for the struct and slice headers.
func (s *deviceSignals) bytes() int64 {
	return 160 + int64(8*(4*len(s.samples)+len(s.present)))
}

// WithSignals returns p carrying its per-device signals (what
// DeviceSamples, NonIIDDegree, DeviceClassCount and DeviceClassFraction
// return, plus class-presence bitsets), computed here. Copies of the
// result carry the same signals, and a Memo reset to any of them reads
// them instead of recomputing.
func WithSignals(p Partition) Partition {
	p.signals = newSignals(p)
	return p
}

// SignalBytes approximates the heap footprint of the signals p
// carries: zero unless p came from WithSignals.
func (p Partition) SignalBytes() int64 {
	if p.signals == nil {
		return 0
	}
	return p.signals.bytes()
}

// Memo answers a partition's per-device queries from its signals and
// owns the scratch buffer behind coverage queries, so the simulation
// round loop stops re-deriving identical entropy sums and class scans
// for every participant of every round. A partition from WithSignals
// lends the memo its shared, read-only signals; for any other, Reset
// computes them afresh. Only the coverage scratch belongs to the memo.
// All queries return bit-identical values to the Partition methods
// they shadow — enforced by TestMemoMatchesPartition.
//
// Reset is not safe for concurrent use; the query methods that take no
// scratch (DeviceSamples, NonIIDDegree, DeviceClassCount,
// DeviceClassFraction) are read-only after Reset and may be called from
// many goroutines. ParticipantSkew and ParticipantCoverage reuse
// internal scratch and must stay on one goroutine.
type Memo struct {
	sig     *deviceSignals // p's signals, shared or computed by Reset
	covered []uint64       // ParticipantCoverage's union scratch, words long
}

// Reset points the memo at p's signals, computing them if p carries
// none.
func (m *Memo) Reset(p Partition) {
	m.sig = p.signals
	if m.sig == nil {
		m.sig = newSignals(p)
	}
	if cap(m.covered) < m.sig.words {
		m.covered = make([]uint64, m.sig.words)
	}
	m.covered = m.covered[:m.sig.words]
}

// DeviceSamples is Partition.DeviceSamples, memoized.
func (m *Memo) DeviceSamples(d int) int { return m.sig.samples[d] }

// NonIIDDegree is Partition.NonIIDDegree, memoized.
func (m *Memo) NonIIDDegree(d int) float64 { return m.sig.degrees[d] }

// DeviceClassCount is Partition.DeviceClassCount, memoized.
func (m *Memo) DeviceClassCount(d int) int { return m.sig.classCnt[d] }

// DeviceClassFraction is Partition.DeviceClassFraction, memoized.
func (m *Memo) DeviceClassFraction(d int) float64 { return m.sig.classFrac[d] }

// ParticipantSkew is Partition.ParticipantSkew over the memoized
// per-device signals: the accumulation order matches the original, so
// the result is bit-identical.
func (m *Memo) ParticipantSkew(devices []int) float64 {
	totalSamples := 0
	weighted := 0.0
	for _, d := range devices {
		n := m.sig.samples[d]
		totalSamples += n
		weighted += float64(n) * m.sig.degrees[d]
	}
	if totalSamples == 0 {
		return 0
	}
	return weighted / float64(totalSamples)
}

// ParticipantCoverage is Partition.ParticipantCoverage over the
// memoized class-presence bitsets: the union is an OR of the devices'
// sets and the count a popcount, so the covered-class count, and with
// it the result, is bit-identical.
func (m *Memo) ParticipantCoverage(devices []int) float64 {
	s := m.sig
	if s.numClasses == 0 {
		return 0
	}
	covered := m.covered
	clear(covered)
	for _, d := range devices {
		set := s.present[d*s.words : (d+1)*s.words]
		for w, v := range set {
			covered[w] |= v
		}
	}
	n := 0
	for _, v := range covered {
		n += bits.OnesCount64(v)
	}
	return float64(n) / float64(s.numClasses)
}
