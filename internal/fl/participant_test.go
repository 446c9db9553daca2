package fl_test

import (
	"fmt"
	"math"
	"testing"

	"fedgpo/internal/device"
	"fedgpo/internal/exp"
	"fedgpo/internal/fl"
	"fedgpo/internal/stats"
	"fedgpo/internal/workload"
)

// participantLedger is the adaptive test controller plus a ledger that
// rebuilds every participant's DeviceRound from outside the kernel:
// (B, E) from adaptiveLocal on the state res.State reports, compute
// time from device.ComputeSeconds, the round trip from the scenario
// channel's Channel.CommRoundTrip, the drop from the deadline, and the
// energy from device.ParticipantJoules (paper Eqs. 2, 3 and 5, with a
// dropped device's work cut off at the round's close). Each field must
// equal the kernel's bit for bit.
type participantLedger struct {
	adaptive
	t      *testing.T
	name   string
	cfg    *fl.Config
	rounds int
	drops  int
}

func (l *participantLedger) Observe(rr fl.RoundResult) {
	cfg, t := l.cfg, l.t
	l.rounds++
	want := make([]fl.DeviceRound, len(rr.Participants))
	commJ := make([]float64, len(rr.Participants))
	for i := range rr.Participants {
		id := rr.Participants[i].DeviceID
		d := &cfg.Fleet[id]
		st := rr.State(id)
		lp := adaptiveLocal(d, &st)
		comp := device.ComputeSeconds(&d.Profile, cfg.Workload.Shape, lp.B, lp.E, st.Samples, st.Interference)
		rt := cfg.Channel.CommRoundTrip(cfg.Workload.Shape.ModelBytes, st.Network)
		total := comp + rt.Seconds
		want[i] = fl.DeviceRound{
			DeviceID:   id,
			Local:      lp,
			ComputeSec: comp,
			CommSec:    rt.Seconds,
			TotalSec:   total,
			Dropped:    cfg.DeadlineSec > 0 && total > cfg.DeadlineSec,
		}
		commJ[i] = rt.Joules
	}
	// The round closes when its slowest participant finishes, or at the
	// deadline, and then pays the aggregation overhead.
	exec := 0.0
	for i := range want {
		exec = max(exec, want[i].TotalSec)
	}
	if cfg.DeadlineSec > 0 {
		exec = min(exec, cfg.DeadlineSec)
	}
	roundSec := exec + cfg.AggregationOverheadSec
	if math.Float64bits(rr.RoundSeconds) != math.Float64bits(roundSec) {
		t.Errorf("%s round %d: %g s, ledger %g s", l.name, rr.Round, rr.RoundSeconds, roundSec)
	}
	for i := range want {
		w := &want[i]
		busy, comm, wait := w.ComputeSec, commJ[i], roundSec-w.TotalSec
		if w.Dropped {
			l.drops++
			frac := 1.0
			if w.TotalSec > 0 {
				frac = stats.Clamp(exec/w.TotalSec, 0, 1)
			}
			busy *= frac
			comm *= frac
			wait = cfg.AggregationOverheadSec
		}
		w.EnergyJ = device.ParticipantJoules(&cfg.Fleet[w.DeviceID].Profile, busy, wait) + comm

		got := &rr.Participants[i]
		same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		if got.Local != w.Local || !same(got.ComputeSec, w.ComputeSec) || !same(got.CommSec, w.CommSec) ||
			!same(got.TotalSec, w.TotalSec) || got.Dropped != w.Dropped || !same(got.EnergyJ, w.EnergyJ) {
			t.Errorf("%s round %d, device %d: kernel %+v, ledger %+v", l.name, rr.Round, w.DeviceID, *got, *w)
		}
	}
}

// Every participant's Local, ComputeSec, CommSec, TotalSec, Dropped and
// EnergyJ equal the ledger's, bit for bit, on realistic cells with an
// auto deadline (so stragglers drop). One arena runs fleets of 200, 20
// and 130 devices in turn, so a DeviceRound field the kernel failed to
// rewrite would show a previous round's or run's value.
func TestParticipantLedgerMatchesKernel(t *testing.T) {
	a := fl.NewArena()
	for _, size := range []int{200, 20, 130} {
		s := exp.Realistic(workload.CNNMNIST())
		s.Fleet.Size = size
		s.MaxRounds = 40
		cfg := s.Config(7)
		cfg.StopAtConvergence = false
		if cfg.DeadlineSec <= 0 {
			t.Fatalf("%d devices: the realistic cell has no deadline", size)
		}
		l := &participantLedger{t: t, name: fmt.Sprintf("%d devices", size), cfg: &cfg}
		fl.RunWithArena(cfg, l, a)
		if l.rounds != cfg.MaxRounds {
			t.Fatalf("%s: observed %d rounds, want %d", l.name, l.rounds, cfg.MaxRounds)
		}
		if l.drops == 0 {
			t.Errorf("%s: no participant dropped, so the deadline branch went unchecked", l.name)
		}
	}
}
