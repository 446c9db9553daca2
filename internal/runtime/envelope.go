package runtime

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"

	"fedgpo/internal/fl"
	"fedgpo/internal/telemetry"
)

// errCorruptEnvelope reports an envelope payload the append functions
// below did not write.
var errCorruptEnvelope = errors.New("runtime: corrupt wire envelope")

// appendBinary appends the payload of one request frame:
//
//	Key | Spec | snapshot list, to the end
//
// Key and Spec are fl.AppendBytes fields; see appendSnaps for the
// snapshot list.
func (r WireRequest) appendBinary(b []byte) []byte {
	b = fl.AppendBytes(b, r.Key)
	b = fl.AppendBytes(b, r.Spec)
	return appendSnaps(b, r.Snaps)
}

// unmarshalBinary decodes what WireRequest.appendBinary wrote,
// overwriting r. It is total: truncation, trailing bytes or a count
// the payload cannot hold is an error, never a panic or an allocation
// beyond the payload's size. Spec aliases p.
func (r *WireRequest) unmarshalBinary(p []byte) error {
	key, p, ok1 := fl.CutBytes(p)
	spec, p, ok2 := fl.CutBytes(p)
	if !ok1 || !ok2 {
		return errCorruptEnvelope
	}
	snaps, p, ok := cutSnaps(p)
	if !ok || len(p) != 0 {
		return errCorruptEnvelope
	}
	*r = WireRequest{Key: string(key), Spec: spec, Snaps: snaps}
	return nil
}

// appendBinary appends the payload of one response frame:
//
//	Key | Cached byte (0 or 1) | Metrics JSON ("" when nil)
//	snapshot list | Result.AppendBinary, to the end
//
// Key and the Metrics JSON are fl.AppendBytes fields; see appendSnaps
// for the snapshot list.
func (r WireResponse) appendBinary(b []byte) ([]byte, error) {
	var metrics []byte
	if r.Metrics != nil {
		var err error
		if metrics, err = json.Marshal(r.Metrics); err != nil {
			return nil, err
		}
	}
	b = fl.AppendBytes(b, r.Key)
	cached := byte(0)
	if r.Cached {
		cached = 1
	}
	b = append(b, cached)
	b = fl.AppendBytes(b, metrics)
	b = appendSnaps(b, r.Snaps)
	return r.Result.AppendBinary(b)
}

// unmarshalBinary decodes what appendBinary wrote, overwriting r.
// Like WireRequest.unmarshalBinary it is total, and it accepts only
// canonical input: whatever it accepts re-encodes to the same bytes, so
// Metrics JSON that json.Marshal would not have written is rejected
// too. The decoded response shares no memory with p.
func (r *WireResponse) unmarshalBinary(p []byte) error {
	key, p, ok := fl.CutBytes(p)
	if !ok || len(p) == 0 || p[0] > 1 {
		return errCorruptEnvelope
	}
	out := WireResponse{Key: string(key), Cached: p[0] == 1}
	metrics, p, ok := fl.CutBytes(p[1:])
	if !ok {
		return errCorruptEnvelope
	}
	if len(metrics) > 0 {
		out.Metrics = new(telemetry.Metrics)
		if err := json.Unmarshal(metrics, out.Metrics); err != nil {
			return fmt.Errorf("runtime: wire envelope metrics: %w", err)
		}
		if canon, err := json.Marshal(out.Metrics); err != nil || !bytes.Equal(canon, metrics) {
			return errCorruptEnvelope
		}
	}
	if out.Snaps, p, ok = cutSnaps(p); !ok {
		return errCorruptEnvelope
	}
	if err := out.Result.UnmarshalBinary(p); err != nil {
		return err
	}
	*r = out
	return nil
}

// appendSnaps appends a snapshot list: a uvarint count, then each
// artifact's Key and Data as fl.AppendBytes fields.
func appendSnaps(b []byte, snaps []SnapshotArtifact) []byte {
	b = binary.AppendUvarint(b, uint64(len(snaps)))
	for _, sa := range snaps {
		b = fl.AppendBytes(b, sa.Key)
		b = fl.AppendBytes(b, sa.Data)
	}
	return b
}

// cutSnaps splits an appendSnaps list off the front of b. An empty
// list decodes as nil. Data is copied out of b: both sides keep
// snapshots past the frame (the coordinator pools them, a worker
// installs them), and an alias would pin the whole payload with them.
func cutSnaps(b []byte) (snaps []SnapshotArtifact, rest []byte, ok bool) {
	n, b, ok := cutCount(b)
	if !ok {
		return nil, nil, false
	}
	if n > 0 {
		snaps = make([]SnapshotArtifact, n)
	}
	for i := range snaps {
		key, r, ok1 := fl.CutBytes(b)
		data, r, ok2 := fl.CutBytes(r)
		if !ok1 || !ok2 {
			return nil, nil, false
		}
		snaps[i] = SnapshotArtifact{Key: string(key), Data: bytes.Clone(data)}
		b = r
	}
	return snaps, b, true
}

// cutCount splits a minimal uvarint element count off the front of b.
// Every element takes at least one byte, so a count above len(rest) is
// corrupt — which also bounds what a caller allocates for it.
func cutCount(b []byte) (n int, rest []byte, ok bool) {
	v, k := binary.Uvarint(b)
	if k <= 0 || (k > 1 && b[k-1] == 0) || v > uint64(len(b)-k) {
		return 0, nil, false
	}
	return int(v), b[k:], true
}
