package core

// Decision tracing: the opt-in per-round record of what the FedGPO
// policy saw, what it was allowed to do, what it chose, what reward it
// earned, and how its Q-tables moved in response. It lives in the
// controller alone: tests read it (TestGoldenControllerDigests pins
// decisions through it), and a reader that explains one cell records
// that cell in process. It is never a cache artifact or a wire field.
//
// Tracing is strictly observational. Recording reads the masked action
// sets through rl.QTable.CandidatesOf/AllowedActions, which consume no
// randomness and mutate nothing, so a traced run makes exactly the
// same decisions as an untraced one; TestGoldenControllerDigests
// enforces the resulting byte-identity of run results.

// RoundTrace is one round's decision record.
type RoundTrace struct {
	// Round is the 1-based simulation round.
	Round int `json:"round"`
	// GlobalState is the round's global execution state key (the K
	// agent's state).
	GlobalState string `json:"globalState"`
	// K is the fleet-level participant-count decision.
	K KDecision `json:"k"`
	// Local holds one entry per distinct (table, state) decision the
	// round made — the per-device memo means a category's devices in
	// one state share a single recorded decision, exactly as they share
	// the action.
	Local []LocalDecision `json:"local,omitempty"`
	// Reward is the round's mean participant reward (the value appended
	// to the §5.4 reward-convergence trace).
	Reward float64 `json:"reward"`
	// Updates holds the Q-table updates this round's transitions
	// produced. They are applied at the start of the next round, when
	// the successor state S' becomes observable, but recorded here —
	// on the round whose decisions they grade.
	Updates []QUpdate `json:"updates,omitempty"`
}

// KDecision is the K agent's choice for one round.
type KDecision struct {
	// State is the global state key the choice was made in.
	State string `json:"state"`
	// Action is the chosen index into the K action grid; K is its
	// resolved participant count.
	Action int `json:"action"`
	K      int `json:"k"`
	// Allowed is the table's admissible action set (the K table carries
	// no per-observation mask, so this is the static table mask).
	Allowed []int `json:"allowed"`
	// Reward is the K agent's Eq. 1 reward for the round, filled in by
	// Observe.
	Reward float64 `json:"reward"`
}

// LocalDecision is one (table, state) local-parameter choice.
type LocalDecision struct {
	// Table is the Q-table identity (device category, or device ID
	// under per-device tables); State the device state key.
	Table string `json:"table"`
	State string `json:"state"`
	// Action indexes the (B, E) action grid; B and E are its resolved
	// batch size and epoch count.
	Action int `json:"action"`
	B      int `json:"b"`
	E      int `json:"e"`
	// Allowed is the masked action set the choice was drawn from: the
	// table mask intersected with the round's dynamic feasibility
	// envelope (actions predicted to straggle are excluded).
	Allowed []int `json:"allowed"`
}

// QUpdate is one applied Q-table update.
type QUpdate struct {
	// Table is the updated table's identity ("K" for the K table).
	Table string `json:"table"`
	// State, Action and Reward are the graded transition; Next is the
	// successor state S' the target was computed against.
	State  string  `json:"state"`
	Action int     `json:"action"`
	Reward float64 `json:"reward"`
	Next   string  `json:"next"`
	// Delta is the applied Q-value change (learning-rate-scaled TD
	// error) — the signal whose decay is the paper's convergence
	// criterion.
	Delta float64 `json:"delta"`
}

// EnableTrace turns on decision recording for the controller's
// subsequent rounds. Tracing never alters decisions; it only records
// them.
func (c *Controller) EnableTrace() { c.tracing = true }

// DecisionTrace returns the recorded rounds (nil when tracing was
// never enabled). The slice is a copy; the per-round contents are
// shared with the controller and must be treated as read-only.
func (c *Controller) DecisionTrace() []RoundTrace {
	if len(c.trace) == 0 {
		return nil
	}
	return append([]RoundTrace(nil), c.trace...)
}

// traceCurrent returns the in-progress round's trace entry, or nil
// when tracing is off or no round has started.
func (c *Controller) traceCurrent() *RoundTrace {
	if !c.tracing || len(c.trace) == 0 {
		return nil
	}
	return &c.trace[len(c.trace)-1]
}
