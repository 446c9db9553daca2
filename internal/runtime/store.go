package runtime

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// Store is the structured record of what a report or sweep actually
// ran: every Add appends each result — round history and summary
// metrics included — to a JSON Lines file as the cell completes, and
// retains only its key, so memory stays bounded by the number of cells,
// not the size of their round histories. A repeated key appends a new
// line; a reader keeps the last occurrence. It is safe for concurrent
// use.
type Store struct {
	mu   sync.Mutex
	keys map[string]struct{}
	f    *os.File
	w    *bufio.Writer
	err  error
}

// NewStore creates (or truncates) path and returns a store appending
// to it. Call Close when done.
func NewStore(path string) (*Store, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("runtime: store stream: %w", err)
	}
	return &Store{keys: make(map[string]struct{}), f: f, w: bufio.NewWriter(f)}, nil
}

// Add appends results to the log. Add cannot return an error without
// breaking its fire-and-forget call sites, so the first write error is
// kept and returned by Close; later results are then counted but not
// written.
func (s *Store) Add(rs ...Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range rs {
		s.keys[r.Key] = struct{}{}
		if s.w == nil || s.err != nil {
			continue
		}
		b, err := json.Marshal(r)
		if err == nil {
			_, err = s.w.Write(append(b, '\n'))
		}
		if err != nil {
			s.err = fmt.Errorf("runtime: store stream: %w", err)
		}
	}
}

// Len returns the number of distinct keys added.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.keys)
}

// Close flushes and closes the log, returning the first error the
// store hit. It is idempotent; Len keeps counting after it.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return s.err
	}
	if err := s.w.Flush(); err != nil && s.err == nil {
		s.err = fmt.Errorf("runtime: store stream: %w", err)
	}
	if err := s.f.Close(); err != nil && s.err == nil {
		s.err = fmt.Errorf("runtime: store stream: %w", err)
	}
	s.f, s.w = nil, nil
	return s.err
}
