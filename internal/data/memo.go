package data

import "math/bits"

// Memo caches a Partition's pure per-device signals (sample counts,
// non-IID degrees, class counts, class-presence bitsets) and owns the
// scratch buffer behind coverage queries, so the simulation round loop
// stops re-deriving identical entropy sums and class scans for every
// participant of every round. All queries return bit-identical values
// to the Partition methods they shadow — enforced by
// TestMemoMatchesPartition.
//
// Reset is not safe for concurrent use; the query methods that take no
// scratch (DeviceSamples, NonIIDDegree, DeviceClassCount,
// DeviceClassFraction) are read-only after Reset and may be called from
// many goroutines. ParticipantSkew and ParticipantCoverage reuse
// internal scratch and must stay on one goroutine.
type Memo struct {
	p         Partition
	samples   []int
	degrees   []float64
	classCnt  []int
	classFrac []float64
	// present holds one class-presence bitset per device, words uint64s
	// each: bit c of device d's set is Counts[d][c] > 0.
	present []uint64
	words   int
	covered []uint64 // ParticipantCoverage's union scratch, words long
}

// Reset points the memo at p and precomputes every per-device signal.
// It reuses the memo's backing arrays when they are large enough.
func (m *Memo) Reset(p Partition) {
	m.p = p
	n := p.NumDevices()
	if cap(m.samples) < n {
		m.samples = make([]int, n)
		m.degrees = make([]float64, n)
		m.classCnt = make([]int, n)
		m.classFrac = make([]float64, n)
	}
	m.samples = m.samples[:n]
	m.degrees = m.degrees[:n]
	m.classCnt = m.classCnt[:n]
	m.classFrac = m.classFrac[:n]
	for d := 0; d < n; d++ {
		m.samples[d] = p.DeviceSamples(d)
		m.degrees[d] = p.NonIIDDegree(d)
		m.classCnt[d] = p.DeviceClassCount(d)
		m.classFrac[d] = p.DeviceClassFraction(d)
	}
	m.words = (p.NumClasses + 63) / 64
	if cap(m.present) < n*m.words {
		m.present = make([]uint64, n*m.words)
	}
	m.present = m.present[:n*m.words]
	clear(m.present)
	for d := 0; d < n; d++ {
		set := m.present[d*m.words : (d+1)*m.words]
		for c, cnt := range p.Counts[d] {
			if cnt > 0 {
				set[c/64] |= 1 << (c % 64)
			}
		}
	}
	if cap(m.covered) < m.words {
		m.covered = make([]uint64, m.words)
	}
	m.covered = m.covered[:m.words]
}

// DeviceSamples is Partition.DeviceSamples, memoized.
func (m *Memo) DeviceSamples(d int) int { return m.samples[d] }

// NonIIDDegree is Partition.NonIIDDegree, memoized.
func (m *Memo) NonIIDDegree(d int) float64 { return m.degrees[d] }

// DeviceClassCount is Partition.DeviceClassCount, memoized.
func (m *Memo) DeviceClassCount(d int) int { return m.classCnt[d] }

// DeviceClassFraction is Partition.DeviceClassFraction, memoized.
func (m *Memo) DeviceClassFraction(d int) float64 { return m.classFrac[d] }

// ParticipantSkew is Partition.ParticipantSkew over the memoized
// per-device signals: the accumulation order matches the original, so
// the result is bit-identical.
func (m *Memo) ParticipantSkew(devices []int) float64 {
	totalSamples := 0
	weighted := 0.0
	for _, d := range devices {
		n := m.samples[d]
		totalSamples += n
		weighted += float64(n) * m.degrees[d]
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
	if m.p.NumClasses == 0 {
		return 0
	}
	covered := m.covered
	clear(covered)
	for _, d := range devices {
		set := m.present[d*m.words : (d+1)*m.words]
		for w, v := range set {
			covered[w] |= v
		}
	}
	n := 0
	for _, v := range covered {
		n += bits.OnesCount64(v)
	}
	return float64(n) / float64(m.p.NumClasses)
}
