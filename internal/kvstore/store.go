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

	"viper/internal/bufpool"
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

// recycleMin is the smallest value buffer the store keeps for reuse.
// Metadata-sized values are cheaper to allocate than to track.
const recycleMin = 64 << 10

// Store is an in-memory key/value store with atomic counters, safe for
// concurrent use. Values are held as bytes and never mutated while
// stored, so a checkpoint-sized value costs no copy on its way in
// (setBytes) or out (pin).
//
// The buffer of a large value that was deleted or overwritten is retired
// to a pool, and the server reads the next large value of its size class
// into it (dispatch): a producer that stages a checkpoint per version and
// trims the oldest copy behind it makes the server fill the same few
// buffers in turn, instead of allocating and zeroing a checkpoint-sized
// one per version. A buffer a reply is still being written from is pinned
// and retired only when the last pin drops.
type Store struct {
	mu      sync.RWMutex
	data    map[string]*entry
	version uint64       // bumps on every mutation, for cheap change detection
	retired bufpool.Pool // buffers of at least recycleMin bytes no value or reply holds
}

// entry is one stored value. pins and gone are guarded by Store.mu.
type entry struct {
	buf  []byte
	pins int  // replies being written from buf
	gone bool // deleted or overwritten: no longer in Store.data
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{data: make(map[string]*entry)}
}

// Set assigns value to key.
func (s *Store) Set(key, value string) { s.setBytes(key, []byte(value)) }

// setBytes assigns value to key without copying: the store takes the
// slice over, so the caller must not touch it afterwards.
func (s *Store) setBytes(key string, value []byte) {
	s.mu.Lock()
	s.putLocked(key, value)
	s.version++
	s.syncGaugesLocked()
	s.mu.Unlock()
	inst.sets.Inc()
}

// putLocked stores buf under key, retiring the value it replaces.
func (s *Store) putLocked(key string, buf []byte) {
	s.retireLocked(s.data[key])
	s.data[key] = &entry{buf: buf}
}

// retireLocked marks e (nil is a no-op) as out of the map; its buffer is
// recycled now, or by the unpin that drops its last pin.
func (s *Store) retireLocked(e *entry) {
	if e == nil {
		return
	}
	e.gone = true
	if e.pins == 0 {
		s.recycleLocked(e.buf)
	}
}

// recycleLocked retires buf, which nothing reads any more, if it is large
// enough to be worth it.
func (s *Store) recycleLocked(buf []byte) {
	if cap(buf) >= recycleMin {
		s.retired.Put(buf)
	}
}

// syncGaugesLocked refreshes the registry gauges from the store state.
// Callers hold s.mu for writing.
func (s *Store) syncGaugesLocked() {
	inst.keyLen.Set(int64(len(s.data)))
	inst.version.Set(int64(s.version))
}

// Get returns the value for key or ErrNotFound.
func (s *Store) Get(key string) (string, error) {
	s.mu.RLock()
	e, ok := s.data[key]
	var v string
	if ok {
		v = string(e.buf) // copied under the lock: the buffer cannot be recycled meanwhile
	}
	s.mu.RUnlock()
	inst.gets.Inc()
	if !ok {
		inst.misses.Inc()
		return "", ErrNotFound
	}
	return v, nil
}

// pin returns key's entry (or ErrNotFound) for a reply to be written
// straight from its buffer, which must not be modified. The buffer stays
// out of reuse, whatever happens to the key, until the matching unpin.
func (s *Store) pin(key string) (*entry, error) {
	s.mu.Lock()
	e, ok := s.data[key]
	if ok {
		e.pins++
	}
	s.mu.Unlock()
	inst.gets.Inc()
	if !ok {
		inst.misses.Inc()
		return nil, ErrNotFound
	}
	return e, nil
}

// unpin drops one pin taken by pin.
func (s *Store) unpin(e *entry) {
	s.mu.Lock()
	if e.pins--; e.pins == 0 && e.gone {
		s.recycleLocked(e.buf)
	}
	s.mu.Unlock()
}

// Del removes key, reporting whether it existed.
func (s *Store) Del(key string) bool {
	s.mu.Lock()
	e, ok := s.data[key]
	if ok {
		delete(s.data, key)
		s.retireLocked(e)
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
	if e, ok := s.data[key]; ok {
		n, err := strconv.ParseInt(string(e.buf), 10, 64)
		if err != nil {
			return 0, errors.New("kvstore: value is not an integer")
		}
		cur = n
	}
	cur++
	s.putLocked(key, strconv.AppendInt(nil, cur, 10))
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
