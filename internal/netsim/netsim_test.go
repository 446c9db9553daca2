package netsim

import (
	"math"
	"testing"
	"testing/quick"

	"fedgpo/internal/stats"
)

func TestStableChannelMostlyRegular(t *testing.T) {
	ch := StableChannel()
	rng := stats.NewRNG(1)
	regular := 0
	n := 5000
	for i := 0; i < n; i++ {
		if ch.Sample(rng).Regular() {
			regular++
		}
	}
	if frac := float64(regular) / float64(n); frac < 0.95 {
		t.Errorf("stable channel regular fraction = %v, want >= 0.95", frac)
	}
}

func TestUnstableChannelOftenBad(t *testing.T) {
	ch := UnstableChannel()
	rng := stats.NewRNG(2)
	bad := 0
	n := 5000
	for i := 0; i < n; i++ {
		if !ch.Sample(rng).Regular() {
			bad++
		}
	}
	frac := float64(bad) / float64(n)
	if frac < 0.3 || frac > 0.9 {
		t.Errorf("unstable channel bad fraction = %v, want in [0.3, 0.9]", frac)
	}
}

func TestSampleRespectsFloor(t *testing.T) {
	ch := UnstableChannel()
	rng := stats.NewRNG(3)
	for i := 0; i < 10000; i++ {
		c := ch.Sample(rng)
		if c.BandwidthMbps < ch.FloorMbps {
			t.Fatalf("bandwidth %v below floor", c.BandwidthMbps)
		}
	}
}

func TestSignalBands(t *testing.T) {
	cases := []struct {
		bw   float64
		want SignalStrength
	}{
		{10, SignalWeak},
		{40, SignalWeak},
		{41, SignalMedium},
		{60, SignalMedium},
		{61, SignalStrong},
		{200, SignalStrong},
	}
	for _, c := range cases {
		if got := ConditionAt(c.bw).Signal; got != c.want {
			t.Errorf("ConditionAt(%v).Signal = %v, want %v", c.bw, got, c.want)
		}
	}
}

func TestTxSeconds(t *testing.T) {
	cond := Condition{BandwidthMbps: 8} // 1 MB/s
	if got := TxSeconds(2e6, cond); math.Abs(got-2) > 1e-9 {
		t.Errorf("TxSeconds = %v, want 2", got)
	}
	if TxSeconds(0, cond) != 0 {
		t.Error("zero payload should take zero time")
	}
	if !math.IsInf(TxSeconds(1, Condition{BandwidthMbps: 0}), 1) {
		t.Error("zero bandwidth should be infinite time")
	}
}

func TestTxPowerGrowsExponentiallyWithWeakSignal(t *testing.T) {
	ch := StableChannel()
	pStrong := ch.TxWatts(SignalStrong)
	pMedium := ch.TxWatts(SignalMedium)
	pWeak := ch.TxWatts(SignalWeak)
	if !(pStrong < pMedium && pMedium < pWeak) {
		t.Fatalf("power should rise as signal weakens: %v %v %v", pStrong, pMedium, pWeak)
	}
	r1 := pMedium / pStrong
	r2 := pWeak / pMedium
	if math.Abs(r1-r2) > 1e-9 {
		t.Errorf("power growth should be geometric: ratios %v vs %v", r1, r2)
	}
}

func TestTxJoulesEq3(t *testing.T) {
	ch := StableChannel()
	cond := Condition{BandwidthMbps: 8, Signal: SignalWeak}
	want := ch.TxWatts(SignalWeak) * TxSeconds(5e6, cond)
	if got := ch.TxJoules(5e6, cond); math.Abs(got-want) > 1e-9 {
		t.Errorf("TxJoules = %v, want %v", got, want)
	}
}

func TestCommRoundTripDoublesOneWay(t *testing.T) {
	ch := StableChannel()
	cond := Condition{BandwidthMbps: 20, Signal: SignalMedium}
	rt := ch.CommRoundTrip(4e6, cond)
	if math.Abs(rt.Seconds-2*TxSeconds(4e6, cond)) > 1e-9 {
		t.Errorf("round-trip seconds = %v", rt.Seconds)
	}
	if math.Abs(rt.Joules-2*ch.TxJoules(4e6, cond)) > 1e-9 {
		t.Errorf("round-trip joules = %v", rt.Joules)
	}
}

func TestWeakSignalCostsMoreEnergyForSamePayload(t *testing.T) {
	// The straggler-energy story: a device at weak signal pays more
	// time AND more power for the same upload.
	ch := UnstableChannel()
	good := ch.CommRoundTrip(8e6, Condition{BandwidthMbps: 80, Signal: SignalStrong})
	bad := ch.CommRoundTrip(8e6, Condition{BandwidthMbps: 10, Signal: SignalWeak})
	if bad.Seconds <= good.Seconds || bad.Joules <= good.Joules {
		t.Errorf("weak link should cost more: %+v vs %+v", bad, good)
	}
}

func TestSignalStringCoverage(t *testing.T) {
	if SignalStrong.String() != "strong" || SignalWeak.String() != "weak" ||
		SignalMedium.String() != "medium" || SignalStrength(42).String() != "unknown" {
		t.Error("signal labels changed")
	}
}

func TestPropertyTxMonotoneInPayload(t *testing.T) {
	ch := StableChannel()
	f := func(p1, p2 uint32, bwRaw uint16) bool {
		bw := 1 + float64(bwRaw%200)
		cond := Condition{BandwidthMbps: bw, Signal: SignalMedium}
		a, b := float64(p1%10_000_000), float64(p2%10_000_000)
		if a > b {
			a, b = b, a
		}
		return TxSeconds(a, cond) <= TxSeconds(b, cond) &&
			ch.TxJoules(a, cond) <= ch.TxJoules(b, cond)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChannelSampleDeterministicPerSeed(t *testing.T) {
	ch := UnstableChannel()
	a, b := stats.NewRNG(99), stats.NewRNG(99)
	for i := 0; i < 100; i++ {
		ca, cb := ch.Sample(a), ch.Sample(b)
		if ca != cb {
			t.Fatalf("same-seed channels diverged at %d: %+v vs %+v", i, ca, cb)
		}
	}
}

// A lower bandwidth never shortens a round trip: over a fine descending
// sweep that crosses both signal-band edges and reaches zero, plus
// sampled pairs, CommModel.RoundTrip's seconds never fall as the
// bandwidth does, for either channel and any payload.
func TestLowerBandwidthNeverShortensRoundTrip(t *testing.T) {
	payloads := []float64{0, 1, 3.2e6, 1.7e7}
	bws := []float64{}
	for bw := 200.0; bw >= 0; bw -= 0.25 {
		bws = append(bws, bw)
	}
	rng := stats.NewRNG(11)
	for name, ch := range map[string]Channel{"stable": StableChannel(), "unstable": UnstableChannel()} {
		m := ch.Model()
		for _, payload := range payloads {
			prev := m.RoundTrip(payload, ConditionAt(bws[0]))
			for _, bw := range bws[1:] {
				rt := m.RoundTrip(payload, ConditionAt(bw))
				if rt.Seconds < prev.Seconds {
					t.Fatalf("%s payload=%g: %g Mbps takes %g s, less than %g s at %g Mbps",
						name, payload, bw, rt.Seconds, prev.Seconds, bw+0.25)
				}
				prev = rt
			}
			for i := 0; i < 1000; i++ {
				hi, lo := ch.Sample(rng), ch.Sample(rng)
				if hi.BandwidthMbps < lo.BandwidthMbps {
					hi, lo = lo, hi
				}
				if a, b := m.RoundTrip(payload, lo).Seconds, m.RoundTrip(payload, hi).Seconds; a < b {
					t.Fatalf("%s payload=%g: %g Mbps takes %g s, less than %g s at %g Mbps",
						name, payload, lo.BandwidthMbps, a, b, hi.BandwidthMbps)
				}
			}
		}
	}
}
