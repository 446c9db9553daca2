package runtime

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// Store is a keyed collection of job results in insertion order — the
// structured record of what a report or sweep actually ran, including
// each cell's JSON round history and summary metrics. It is safe for
// concurrent use.
//
// A store holds results in memory by default (ReadStore returns one).
// StreamTo switches it to streaming mode: every Add appends the result
// to a JSON Lines file as the cell completes and retains only its key,
// so a sweep's memory stays bounded by the number of cells, not the
// size of their round histories.
type Store struct {
	mu    sync.Mutex
	order []string
	byKey map[string]Result

	streaming bool
	stream    *os.File
	sw        *bufio.Writer
	serr      error
}

// NewStore returns an empty in-memory store.
func NewStore() *Store { return &Store{byKey: make(map[string]Result)} }

// StreamTo switches the store to streaming mode: results added from
// now on are appended to path as JSON Lines — one result object per
// line, written as each cell completes — instead of being retained in
// memory. Results already held are flushed to the stream first, in
// insertion order. A repeated key appends a new line; the read path
// keeps the last occurrence. Call Close when done.
func (s *Store) StreamTo(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stream != nil {
		return fmt.Errorf("runtime: store already streaming to %s", s.stream.Name())
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("runtime: store stream: %w", err)
	}
	s.streaming = true
	s.stream = f
	s.sw = bufio.NewWriter(f)
	for _, k := range s.order {
		s.append(s.byKey[k])
		// Keep the key, drop the payload: Add needs the key set to keep
		// Len and insertion order dedup-correct across the switch.
		s.byKey[k] = Result{}
	}
	return s.serr
}

// Close flushes and closes the stream file. It is a no-op for an
// in-memory store. The store keeps its key order, so Len still reports
// the distinct-cell count after closing.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stream == nil {
		return nil
	}
	if err := s.sw.Flush(); err != nil && s.serr == nil {
		s.serr = fmt.Errorf("runtime: store stream: %w", err)
	}
	if err := s.stream.Close(); err != nil && s.serr == nil {
		s.serr = fmt.Errorf("runtime: store stream: %w", err)
	}
	s.stream, s.sw = nil, nil
	return s.serr
}

// StreamErr returns the first error the streaming writer hit (nil for
// an in-memory store or a healthy stream). Add cannot return an error
// without breaking its fire-and-forget call sites, so a full disk
// surfaces here and at Close.
func (s *Store) StreamErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.serr
}

// append writes one result to the stream. Caller holds mu.
func (s *Store) append(r Result) {
	if s.serr != nil {
		return
	}
	b, err := json.Marshal(r)
	if err == nil {
		_, err = s.sw.Write(append(b, '\n'))
	}
	if err != nil {
		s.serr = fmt.Errorf("runtime: store stream: %w", err)
	}
}

// Add records results; a repeated key keeps its original position and
// is overwritten in place (in streaming mode the new line shadows the
// old one on read).
func (s *Store) Add(rs ...Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range rs {
		if _, seen := s.byKey[r.Key]; !seen {
			s.order = append(s.order, r.Key)
		}
		if s.streaming {
			s.byKey[r.Key] = Result{} // key tracked, payload on disk
			if s.stream != nil {
				s.append(r)
			}
			continue
		}
		s.byKey[r.Key] = r
	}
}

// Get returns the result stored under the canonical key. In streaming
// mode results live on disk, not in the map, so Get reports false.
func (s *Store) Get(key string) (Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.streaming {
		return Result{}, false
	}
	r, ok := s.byKey[key]
	return r, ok
}

// Len returns the number of distinct results.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.order)
}

// Results returns all results in insertion order (empty in streaming
// mode — the results are on disk; ReadStore loads them back).
func (s *Store) Results() []Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.streaming {
		return nil
	}
	out := make([]Result, len(s.order))
	for i, k := range s.order {
		out[i] = s.byKey[k]
	}
	return out
}

// ReadStore loads the JSON Lines log StreamTo appends. For repeated
// keys the last occurrence wins, matching Add's overwrite semantics.
func ReadStore(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st := NewStore()
	dec := json.NewDecoder(bufio.NewReader(f))
	for line := 1; ; line++ {
		var r Result
		if err := dec.Decode(&r); err == io.EOF {
			return st, nil
		} else if err != nil {
			return nil, fmt.Errorf("runtime: store decode %s (line %d): %w", path, line, err)
		}
		st.Add(r)
	}
}
