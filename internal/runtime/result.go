package runtime

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"

	"fedgpo/internal/fl"
	"fedgpo/internal/telemetry"
)

// Provenance values for Result.Provenance.
const (
	// ProvenanceMeasured marks a result whose cell actually executed in
	// this run — its wall-clock measurements (the sec54 timing rows)
	// were taken on this machine, now.
	ProvenanceMeasured = "measured"
	// ProvenanceReplayed marks a result served from the run cache — its
	// wall-clock measurements were taken whenever the cell originally
	// ran, possibly on different hardware.
	ProvenanceReplayed = "replayed-from-cache"
)

// Result is the serializable outcome of one job: the simulator's
// summary metrics and round history, plus an optional Kind-specific
// payload.
type Result struct {
	// Key echoes the canonical job key the result was produced under.
	Key string `json:"key"`
	// Sim is the simulator outcome (summary metrics + per-round
	// history).
	Sim fl.Result `json:"sim"`
	// Extra carries Kind-specific measurements (e.g. reward history and
	// controller overhead for the sec54 probe).
	Extra json.RawMessage `json:"extra,omitempty"`
	// Err records a panic raised by the job body; errored results are
	// never cached.
	Err string `json:"err,omitempty"`
	// Cached reports whether this result was served from the run cache.
	Cached bool `json:"-"`
	// Telemetry carries the executing process's per-job phase timings
	// (pretrain, rounds, merge). Like Cached it is excluded from result
	// JSON — telemetry must never change cached bytes — and travels the
	// wire separately, in WireResponse's metrics field.
	Telemetry *telemetry.Metrics `json:"-"`
	// Snaps carries serialized pretrain snapshots this job's execution
	// built from scratch (at most one today). Like Telemetry it is
	// excluded from result JSON — snapshots are cache artifacts
	// addressed by their own keys, never part of a cell's cached bytes —
	// and travels the wire separately, in WireResponse's snaps field,
	// so the coordinator can persist and re-ship them to cold endpoints.
	Snaps []SnapshotArtifact `json:"-"`
	// Provenance tags the result's wall-clock measurements as
	// ProvenanceMeasured or ProvenanceReplayed. It is set by the
	// experiment runtime after execution — never by job bodies or
	// workers, and always after the cache write-back — so cache entries
	// and wire frames carry no provenance and stay byte-identical across
	// cold and warm runs; only the -results store JSON sees the tag.
	Provenance string `json:"provenance,omitempty"`
}

// SnapshotArtifact is one serialized content-addressed snapshot moving
// over the wire: Key is the artifact's canonical cache key (a pretrain
// key today) and Data its cache payload, opaque to this package.
// Shipping it is pure transport — the artifact is persisted under
// exactly the key, and as exactly the bytes, it would have been cached
// under had it been built locally.
type SnapshotArtifact struct {
	Key  string
	Data []byte
}

// SetExtra marshals v into the Extra payload.
func (r *Result) SetExtra(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic("runtime: unmarshalable extra payload: " + err.Error())
	}
	r.Extra = b
}

// GetExtra unmarshals the Extra payload into v.
func (r Result) GetExtra(v any) error { return json.Unmarshal(r.Extra, v) }

// AppendBinary appends r's cache payload to b:
//
//	uvarint len(Key) | Key | uvarint len(Err) | Err
//	uvarint len(Extra) | Extra | Sim in fl's binary form, to the end
//
// Extra rides as opaque bytes. Provenance and the fields JSON skips
// are not part of it, so a cache entry never carries them. b grows
// once, to the exact size.
func (r Result) AppendBinary(b []byte) ([]byte, error) {
	b = slices.Grow(b, fl.BytesSize(len(r.Key))+fl.BytesSize(len(r.Err))+
		fl.BytesSize(len(r.Extra))+r.Sim.BinarySize())
	b = fl.AppendBytes(b, r.Key)
	b = fl.AppendBytes(b, r.Err)
	b = fl.AppendBytes(b, r.Extra)
	return r.Sim.AppendBinary(b)
}

// errCorruptResult reports a cache payload AppendBinary did not write.
var errCorruptResult = errors.New("runtime: corrupt binary result")

// UnmarshalBinary decodes what AppendBinary wrote, overwriting r. Like
// fl.Result.UnmarshalBinary it is total: anything malformed is an
// error, never a panic. The decoded result shares no memory with data.
// An empty Extra decodes as nil, as it does from JSON.
func (r *Result) UnmarshalBinary(data []byte) error {
	key, data, ok1 := fl.CutBytes(data)
	errText, data, ok2 := fl.CutBytes(data)
	extra, data, ok3 := fl.CutBytes(data)
	if !ok1 || !ok2 || !ok3 {
		return errCorruptResult
	}
	var sim fl.Result
	if err := sim.UnmarshalBinary(data); err != nil {
		return err
	}
	*r = Result{Key: string(key), Err: string(errText), Sim: sim}
	if len(extra) > 0 {
		r.Extra = bytes.Clone(extra)
	}
	return nil
}
