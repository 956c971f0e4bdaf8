// Package kvstore implements the shared metadata database Viper uses to
// track model checkpoints (name, version, location, path, size) — the
// paper deploys Redis for this role. The package provides an in-process
// store plus a line-protocol TCP server and client so producer and
// consumer processes on different nodes can share one instance.
package kvstore

import (
	"errors"
	"sort"
	"strconv"
	"strings"
	"sync"

	"viper/internal/metrics"
)

// ErrNotFound is returned when a key does not exist.
var ErrNotFound = errors.New("kvstore: key not found")

// registry is the package's metrics surface, fed by every store in the
// process. Operations are per-key (metadata-sized, never per-byte), so
// direct atomic increments are cheap.
var registry = metrics.NewRegistry("kvstore")

// Metrics returns the package's metrics registry.
func Metrics() *metrics.Registry { return registry }

var inst = struct {
	sets    *metrics.Counter
	gets    *metrics.Counter
	misses  *metrics.Counter
	dels    *metrics.Counter
	incrs   *metrics.Counter
	keyLen  *metrics.Gauge
	version *metrics.Gauge
}{
	sets:    registry.Counter("sets"),
	gets:    registry.Counter("gets"),
	misses:  registry.Counter("get_misses"),
	dels:    registry.Counter("dels"),
	incrs:   registry.Counter("incrs"),
	keyLen:  registry.Gauge("keys"),
	version: registry.Gauge("version"),
}

// Store is an in-memory key/value store with atomic counters, safe for
// concurrent use. Values are held as bytes and never mutated once
// stored, so a checkpoint-sized value costs no copy on its way in
// (setBytes) or out (getBytes).
type Store struct {
	mu      sync.RWMutex
	data    map[string][]byte
	version uint64 // bumps on every mutation, for cheap change detection
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{data: make(map[string][]byte)}
}

// Set assigns value to key.
func (s *Store) Set(key, value string) { s.setBytes(key, []byte(value)) }

// setBytes assigns value to key without copying: the store retains the
// slice, so the caller must not modify it afterwards.
func (s *Store) setBytes(key string, value []byte) {
	s.mu.Lock()
	s.data[key] = value
	s.version++
	s.syncGaugesLocked()
	s.mu.Unlock()
	inst.sets.Inc()
}

// syncGaugesLocked refreshes the registry gauges from the store state.
// Callers hold s.mu for writing.
func (s *Store) syncGaugesLocked() {
	inst.keyLen.Set(int64(len(s.data)))
	inst.version.Set(int64(s.version))
}

// Get returns the value for key or ErrNotFound.
func (s *Store) Get(key string) (string, error) {
	v, err := s.getBytes(key)
	return string(v), err
}

// getBytes returns the stored value for key (or ErrNotFound) without
// copying; the slice is shared with the store and must not be modified.
func (s *Store) getBytes(key string) ([]byte, error) {
	s.mu.RLock()
	v, ok := s.data[key]
	s.mu.RUnlock()
	inst.gets.Inc()
	if !ok {
		inst.misses.Inc()
		return nil, ErrNotFound
	}
	return v, nil
}

// Del removes key, reporting whether it existed.
func (s *Store) Del(key string) bool {
	s.mu.Lock()
	_, ok := s.data[key]
	if ok {
		delete(s.data, key)
		s.version++
		s.syncGaugesLocked()
	}
	s.mu.Unlock()
	inst.dels.Inc()
	return ok
}

// Incr atomically increments the integer stored at key (missing keys
// start at 0) and returns the new value. Non-integer values error.
func (s *Store) Incr(key string) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := int64(0)
	if v, ok := s.data[key]; ok {
		n, err := strconv.ParseInt(string(v), 10, 64)
		if err != nil {
			return 0, errors.New("kvstore: value is not an integer")
		}
		cur = n
	}
	cur++
	s.data[key] = strconv.AppendInt(nil, cur, 10)
	s.version++
	s.syncGaugesLocked()
	inst.incrs.Inc()
	return cur, nil
}

// Keys returns all keys with the given prefix, sorted.
func (s *Store) Keys(prefix string) []string {
	s.mu.RLock()
	out := make([]string, 0, len(s.data))
	for k := range s.data {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	s.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Len returns the number of stored keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data)
}

// Version returns a counter that increases on every mutation; consumers
// can use it to detect "anything changed" cheaply.
func (s *Store) Version() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version
}

// SetMulti sets several key/value pairs atomically (one version bump).
func (s *Store) SetMulti(kv map[string]string) {
	s.mu.Lock()
	for k, v := range kv {
		s.data[k] = []byte(v)
	}
	s.version++
	s.syncGaugesLocked()
	s.mu.Unlock()
	inst.sets.Add(int64(len(kv)))
}

// GetMulti fetches several keys atomically; missing keys are omitted from
// the result.
func (s *Store) GetMulti(keys []string) map[string]string {
	out := make(map[string]string, len(keys))
	s.mu.RLock()
	for _, k := range keys {
		if v, ok := s.data[k]; ok {
			out[k] = string(v)
		}
	}
	s.mu.RUnlock()
	return out
}
