package runtime

import (
	"encoding/json"
	"strconv"
	"strings"
)

// keyVersion prefixes every job key; bump it whenever the meaning of a
// cached result changes — or the canonical key layout does — so old
// cache directories invalidate wholesale.
// v2: warm FedGPO contenders are restored from pretrained-controller
// snapshots instead of re-running the warm-up per cell, which changes
// the exact cell results (the restored controller's RNG stream differs
// from a freshly warmed one's).
// v3: scenario descriptors hash the full resolved scenario spec
// (device-class mix, partition kind/alpha/seed, channel parameters,
// co-runner profile/fraction, deadline policy) instead of the old
// name + booleans layout, and the display name no longer participates
// — results are unchanged, but the scenario half of every key is laid
// out differently, so v2 entries must not be replayed against v3 keys.
// v4: a Result payload no longer carries the derived outcome fields
// (fl.Outcome), and the scenario key names the workload by its name
// plus a digest of its parameters instead of by its name alone.
const keyVersion = "v4"

// Job names one simulation cell and knows how to execute it.
type Job struct {
	// Kind tags the job family ("sim", "sec54", "oracle", ...). Jobs of
	// different kinds carry different Extra payloads and must never
	// share a cache entry.
	Kind string
	// Scenario is the canonical scenario descriptor: every deployment
	// knob that influences the outcome (workload, fleet size, round
	// budget, partition, variance models, deadline).
	Scenario string
	// Controller is the canonical controller descriptor: the policy
	// family plus its full configuration.
	Controller string
	// Seed is the run seed.
	Seed int64
	// Payload is the job's serialized spec: a self-contained JSON
	// description from which any process can reconstruct and execute
	// the cell (the experiment harness encodes its JobSpec here). It is
	// what the coordinator streams to worker pools; the in-process pool
	// never reads it.
	Payload json.RawMessage
	// Run executes the cell on a cache miss. It is called from a worker
	// goroutine and must not share mutable state with other jobs. For
	// spec-built jobs it is the in-process compilation of Payload: both
	// must compute the same result.
	Run func() Result
	// ForceRun makes the executor skip the cache lookup and execute the
	// cell even when a cached result exists. The re-run's result is
	// byte-identical to the cached one (cells are deterministic), so the
	// redundant write-back is harmless. It exists for side-effect
	// capture: tracing a cached cell's RL decisions requires one re-run,
	// which publishes the trace artifact so later traced runs are pure
	// hits again. ForceRun never enters the canonical key.
	ForceRun bool
	// SnapshotKey names the pretrain snapshot the cell reads (for warm
	// FedGPO cells, the Q-table warm-up's cache key), "" for none. It is
	// a dependency the coordinator's dispatch queue honours so that each
	// snapshot is built once across the fleet, not part of the cell's
	// identity: it must NEVER enter Key(), and where a cell runs never
	// changes its result.
	SnapshotKey string
}

// Key returns the stable canonical key naming this cell.
func (j Job) Key() string { return string(j.AppendKey(nil)) }

// AppendKey appends the canonical key to dst and returns the extended
// slice, byte-identical to Key(). It is the batch hot path: an
// executor resolving a warm batch reuses one per-batch buffer across
// every job, so key assembly allocates nothing once the buffer has
// grown to the batch's longest key (Key, by contrast, allocates a
// fresh string per call).
func (j Job) AppendKey(dst []byte) []byte {
	dst = append(dst, keyVersion...)
	dst = append(dst, '|')
	dst = append(dst, j.Kind...)
	dst = append(dst, '|')
	dst = append(dst, j.Scenario...)
	dst = append(dst, '|')
	dst = append(dst, j.Controller...)
	dst = append(dst, "|seed="...)
	return strconv.AppendInt(dst, j.Seed, 10)
}

// KeyFor builds a canonical cache key for a non-job artifact (e.g. a
// grid-search selection) under the same version prefix as job keys.
func KeyFor(kind string, parts ...string) string {
	return strings.Join(append([]string{keyVersion, kind}, parts...), "|")
}
