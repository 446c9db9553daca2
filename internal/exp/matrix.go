package exp

import (
	"fmt"
	"strconv"
	"strings"

	"fedgpo/internal/device"
	"fedgpo/internal/workload"
)

// maxMatrixCells bounds a scenario matrix's cross product. The
// benchmark's matrix has 216 cells.
const maxMatrixCells = 100_000

// ScenarioMatrix generates the cross product of scenario axes for a
// workload — the generator behind fedgpo-sweep's -matrix flag. The
// matrix string is a ';'-separated list of axes, each "name=v1,v2,..."
// with the axis values crossed in the order given:
//
//	fleet=200,100,H5:M5:L10   fleet size (paper mix scaled) or explicit H:M:L mix
//	alpha=iid,0.1,0.5         data partition: IID or Dirichlet concentration
//	net=stable,unstable       wireless channel preset
//	intf=none,web-browsing,heavy-game@0.3
//	                          co-runner profile, optionally @active-fraction
//	deadline=none,auto,120    straggler policy: none, auto, or fixed seconds
//	rounds=100                per-run round budget
//
// Every combination starts from the Ideal preset, applies one value
// per axis, and is named by its axis assignments (e.g.
// "fleet=100/alpha=0.5/net=unstable"), so each scenario's display
// label states exactly how it deviates from the baseline. Specs are
// returned in row-major order: the last axis varies fastest.
func ScenarioMatrix(w workload.Workload, matrix string) ([]ScenarioSpec, error) {
	type axis struct {
		name   string
		values []string
	}
	var axes []axis
	seen := map[string]bool{}
	for _, part := range strings.Split(matrix, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, vals, ok := strings.Cut(part, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" || strings.TrimSpace(vals) == "" {
			return nil, fmt.Errorf("exp: matrix axis %q: want name=v1,v2,...", part)
		}
		if seen[name] {
			return nil, fmt.Errorf("exp: matrix axis %q given twice", name)
		}
		seen[name] = true
		var values []string
		for _, v := range strings.Split(vals, ",") {
			v = strings.TrimSpace(v)
			if v == "" {
				return nil, fmt.Errorf("exp: matrix axis %q has an empty value", name)
			}
			values = append(values, v)
		}
		axes = append(axes, axis{name, values})
	}
	if len(axes) == 0 {
		return nil, fmt.Errorf("exp: empty scenario matrix")
	}
	// Size the cross product before building any of it, so a hostile
	// matrix is an error rather than an allocation.
	cells := 1
	for _, ax := range axes {
		if len(ax.values) > maxMatrixCells/cells {
			return nil, fmt.Errorf("exp: scenario matrix has more than %d cells", maxMatrixCells)
		}
		cells *= len(ax.values)
	}

	specs := []ScenarioSpec{Ideal(w)}
	specs[0].Name = ""
	for _, ax := range axes {
		next := make([]ScenarioSpec, 0, len(specs)*len(ax.values))
		for _, base := range specs {
			for _, v := range ax.values {
				s := base
				if err := applyAxis(&s, ax.name, v); err != nil {
					return nil, err
				}
				label := ax.name + "=" + v
				if s.Name == "" {
					s.Name = label
				} else {
					s.Name += "/" + label
				}
				next = append(next, s)
			}
		}
		specs = next
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("exp: matrix scenario %q: %w", s.Name, err)
		}
	}
	return specs, nil
}

// applyAxis sets one axis value on a spec. It parses numbers; kind
// names are ScenarioSpec.Validate's to check.
func applyAxis(s *ScenarioSpec, name, v string) error {
	switch name {
	case "fleet":
		return applyFleetAxis(s, v)
	case "alpha":
		if v == PartitionIID {
			s.Partition = PartitionSpec{}
			return nil
		}
		alpha, err := strconv.ParseFloat(v, 64)
		if err != nil || alpha <= 0 {
			return fmt.Errorf("exp: matrix alpha %q: want %q or a positive concentration", v, PartitionIID)
		}
		s.Partition = PartitionSpec{Kind: PartitionDirichlet, Alpha: alpha, Seed: nonIIDPartitionSeed}
		return nil
	case "net":
		s.Network = NetworkSpec{Kind: v}
		return nil
	case "intf":
		if v == IntfNone {
			s.Interference = InterferenceSpec{}
			return nil
		}
		kind, fracStr, hasFrac := strings.Cut(v, "@")
		spec := InterferenceSpec{Kind: kind}
		if hasFrac {
			frac, err := strconv.ParseFloat(fracStr, 64)
			if err != nil || frac <= 0 || frac > 1 {
				return fmt.Errorf("exp: matrix intf %q: active fraction must be in (0, 1]", v)
			}
			spec.ActiveFraction = frac
		}
		s.Interference = spec
		return nil
	case "deadline":
		switch v {
		case DeadlineNone:
			s.Deadline = DeadlineSpec{}
		case DeadlineAuto:
			s.Deadline = DeadlineSpec{Kind: DeadlineAuto}
		default:
			sec, err := strconv.ParseFloat(v, 64)
			if err != nil || sec <= 0 {
				return fmt.Errorf("exp: matrix deadline %q: want %s, %s, or positive seconds", v, DeadlineNone, DeadlineAuto)
			}
			s.Deadline = DeadlineSpec{Kind: DeadlineFixed, Seconds: sec}
		}
		return nil
	case "rounds":
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return fmt.Errorf("exp: matrix rounds %q: want a positive integer", v)
		}
		s.MaxRounds = n
		return nil
	default:
		return fmt.Errorf("exp: unknown matrix axis %q (valid: fleet, alpha, net, intf, deadline, rounds)", name)
	}
}

// applyFleetAxis parses a fleet axis value: a total size (paper mix
// scaled) or an explicit "H#:M#:L#" device-class mix.
func applyFleetAxis(s *ScenarioSpec, v string) error {
	if n, err := strconv.Atoi(v); err == nil {
		if n <= 0 {
			return fmt.Errorf("exp: matrix fleet %q: size must be positive", v)
		}
		s.Fleet = FleetSpec{Size: n}
		return nil
	}
	parts := strings.Split(v, ":")
	if len(parts) != 3 {
		return fmt.Errorf("exp: matrix fleet %q: want a size or H#:M#:L#", v)
	}
	counts := make([]int, 3)
	for i, prefix := range []string{"H", "M", "L"} {
		p := parts[i]
		if !strings.HasPrefix(p, prefix) {
			return fmt.Errorf("exp: matrix fleet %q: want H#:M#:L#", v)
		}
		n, err := strconv.Atoi(p[len(prefix):])
		if err != nil || n < 0 {
			return fmt.Errorf("exp: matrix fleet %q: bad %s count", v, prefix)
		}
		counts[i] = n
	}
	if counts[0]+counts[1]+counts[2] == 0 {
		return fmt.Errorf("exp: matrix fleet %q: empty fleet", v)
	}
	s.Fleet = FleetSpec{Mix: device.FleetComposition{High: counts[0], Mid: counts[1], Low: counts[2]}}
	return nil
}
