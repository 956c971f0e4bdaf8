// Package memsim simulates the multi-tier storage hierarchy of an HPC
// compute node — GPU memory, host (DRAM) memory, and a shared parallel
// file system — with per-tier bandwidth and latency models charged against
// a pluggable clock.
//
// Data is physically stored (real byte copies, real code paths); only the
// passage of time is simulated. Each operation may declare a virtual
// payload size larger than the physical payload, which is how experiments
// account full paper-scale checkpoints (e.g. TC1's 4.7 GB) while moving a
// scaled-down number of real bytes.
//
// Default bandwidths are calibrated so the ratios between strategies match
// the paper's Figure 8/9 (see DESIGN.md §1): they are not measurements of
// this machine.
package memsim

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"viper/internal/simclock"
)

// BandwidthModel converts a transfer size into elapsed time.
type BandwidthModel struct {
	// Latency is the fixed per-operation setup cost.
	Latency time.Duration
	// BytesPerSec is the streaming bandwidth.
	BytesPerSec float64
}

// Time returns the modelled duration for moving size bytes.
func (b BandwidthModel) Time(size int64) time.Duration {
	if size < 0 {
		size = 0
	}
	d := b.Latency
	if b.BytesPerSec > 0 {
		d += time.Duration(float64(size) / b.BytesPerSec * float64(time.Second))
	}
	return d
}

const (
	kb = 1 << 10
	mb = 1 << 20
	gb = 1 << 30
)

// Calibrated tier models (see package comment).
var (
	// GPUSpec models device-local GPU memory copies (cudaMemcpy D2D):
	// checkpointing into GPU memory stalls training for size/75GB/s.
	GPUSpec = TierSpec{
		Name:     "gpu",
		Write:    BandwidthModel{Latency: 20 * time.Microsecond, BytesPerSec: 75 * gb},
		Read:     BandwidthModel{Latency: 20 * time.Microsecond, BytesPerSec: 75 * gb},
		Capacity: 40 * gb, // A100 40GB
	}
	// HostSpec models GPU→host staging copies (unpinned cudaMemcpy D2H),
	// the dominant cost of host-memory checkpointing in Figure 9.
	HostSpec = TierSpec{
		Name:     "host",
		Write:    BandwidthModel{Latency: 50 * time.Microsecond, BytesPerSec: 3.4 * gb},
		Read:     BandwidthModel{Latency: 50 * time.Microsecond, BytesPerSec: 20 * gb},
		Capacity: 512 * gb, // Polaris node DRAM
	}
	// PFSSpec models a Lustre-like parallel file system client: high
	// latency, modest per-client streaming bandwidth, further degraded
	// for small uncoordinated accesses (SmallIOThreshold/SmallIOFactor).
	PFSSpec = TierSpec{
		Name:             "pfs",
		Write:            BandwidthModel{Latency: 10 * time.Millisecond, BytesPerSec: 1.25 * gb},
		Read:             BandwidthModel{Latency: 10 * time.Millisecond, BytesPerSec: 1.6 * gb},
		Capacity:         0, // unbounded
		SmallIOThreshold: 4 * mb,
		SmallIOFactor:    8,
	}
)

// TierSpec describes one storage tier.
type TierSpec struct {
	// Name identifies the tier ("gpu", "host", "pfs").
	Name string
	// Write and Read are the streaming models.
	Write, Read BandwidthModel
	// Capacity in bytes; 0 means unbounded.
	Capacity int64
	// SmallIOThreshold: accesses smaller than this are charged at
	// bandwidth/SmallIOFactor, modelling PFS small-random-I/O collapse.
	SmallIOThreshold int64
	// SmallIOFactor is the bandwidth divisor for small accesses (>=1).
	SmallIOFactor float64
}

// Stats aggregates device activity.
type Stats struct {
	// Writes and Reads count operations.
	Writes, Reads int64
	// BytesWritten and BytesRead accumulate virtual payload sizes.
	BytesWritten, BytesRead int64
	// BusyTime is total modelled device time consumed.
	BusyTime time.Duration
}

// ErrCapacityExceeded is returned when a bounded tier cannot hold the
// virtual payload; Viper's transfer selector reacts by falling back to a
// lower tier, as the paper describes for insufficient GPU memory.
var ErrCapacityExceeded = errors.New("memsim: capacity exceeded")

// ErrNotFound is returned when reading or deleting a missing key.
var ErrNotFound = errors.New("memsim: key not found")

type blob struct {
	data        []byte
	virtualSize int64
}

// Device is one simulated storage tier instance. It is safe for
// concurrent use.
type Device struct {
	spec  TierSpec
	clock simclock.Clock

	mu    sync.Mutex
	blobs map[string]blob
	used  int64
	stats Stats
}

// NewDevice constructs a device with the given spec on the given clock.
func NewDevice(spec TierSpec, clock simclock.Clock) *Device {
	if clock == nil {
		panic("memsim: nil clock")
	}
	return &Device{spec: spec, clock: clock, blobs: make(map[string]blob)}
}

// Name returns the tier name.
func (d *Device) Name() string { return d.spec.Name }

// effective applies the small-I/O penalty to a bandwidth model.
func (d *Device) effective(m BandwidthModel, size int64) BandwidthModel {
	if d.spec.SmallIOThreshold > 0 && size < d.spec.SmallIOThreshold && d.spec.SmallIOFactor > 1 {
		m.BytesPerSec /= d.spec.SmallIOFactor
	}
	return m
}

// WriteTime reports how long writing size bytes would take (without
// performing a write).
func (d *Device) WriteTime(size int64) time.Duration {
	return d.effective(d.spec.Write, size).Time(size)
}

// Write stores a copy of data under key, charging time for virtualSize
// bytes (len(data) if virtualSize <= 0). Overwriting an existing key
// reuses its capacity.
func (d *Device) Write(key string, data []byte, virtualSize int64) error {
	if virtualSize <= 0 {
		virtualSize = int64(len(data))
	}
	d.mu.Lock()
	prev, exists := d.blobs[key]
	newUsed := d.used + virtualSize
	if exists {
		newUsed -= prev.virtualSize
	}
	if d.spec.Capacity > 0 && newUsed > d.spec.Capacity {
		d.mu.Unlock()
		return fmt.Errorf("%w: %s needs %d bytes, %d available", ErrCapacityExceeded,
			d.spec.Name, virtualSize, d.spec.Capacity-d.used)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	d.blobs[key] = blob{data: cp, virtualSize: virtualSize}
	d.used = newUsed
	cost := d.effective(d.spec.Write, virtualSize).Time(virtualSize)
	d.stats.Writes++
	d.stats.BytesWritten += virtualSize
	d.stats.BusyTime += cost
	d.mu.Unlock()
	d.clock.Sleep(cost)
	return nil
}

// Put stores a copy of data under key without charging any time. It is
// used when the transfer cost was already accounted elsewhere — e.g. an
// RDMA write whose time the network link charged lands in the target
// node's memory "for free". Capacity is still enforced.
func (d *Device) Put(key string, data []byte, virtualSize int64) error {
	if virtualSize <= 0 {
		virtualSize = int64(len(data))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	prev, exists := d.blobs[key]
	newUsed := d.used + virtualSize
	if exists {
		newUsed -= prev.virtualSize
	}
	if d.spec.Capacity > 0 && newUsed > d.spec.Capacity {
		return fmt.Errorf("%w: %s needs %d bytes, %d available", ErrCapacityExceeded,
			d.spec.Name, virtualSize, d.spec.Capacity-d.used)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	d.blobs[key] = blob{data: cp, virtualSize: virtualSize}
	d.used = newUsed
	return nil
}

// Read returns a copy of the payload stored under key, charging time for
// its virtual size.
func (d *Device) Read(key string) ([]byte, error) {
	d.mu.Lock()
	b, ok := d.blobs[key]
	if !ok {
		d.mu.Unlock()
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, d.spec.Name, key)
	}
	cp := make([]byte, len(b.data))
	copy(cp, b.data)
	cost := d.effective(d.spec.Read, b.virtualSize).Time(b.virtualSize)
	d.stats.Reads++
	d.stats.BytesRead += b.virtualSize
	d.stats.BusyTime += cost
	d.mu.Unlock()
	d.clock.Sleep(cost)
	return cp, nil
}

// Delete removes key, freeing its capacity.
func (d *Device) Delete(key string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	b, ok := d.blobs[key]
	if !ok {
		return fmt.Errorf("%w: %s/%s", ErrNotFound, d.spec.Name, key)
	}
	d.used -= b.virtualSize
	delete(d.blobs, key)
	return nil
}

// Has reports whether key is stored.
func (d *Device) Has(key string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.blobs[key]
	return ok
}

// Keys returns the stored keys in sorted order.
func (d *Device) Keys() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.blobs))
	for k := range d.blobs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Used returns the occupied virtual capacity in bytes.
func (d *Device) Used() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.used
}

// Stats returns a snapshot of the device's counters.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// EvictOldest removes stored blobs (in lexicographic key order, which for
// Viper's version-stamped keys is oldest-first) until at least need bytes
// are free. It reports whether enough space was freed.
func (d *Device) EvictOldest(need int64) bool {
	if d.spec.Capacity <= 0 {
		return true
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.spec.Capacity-d.used >= need {
		return true
	}
	keys := make([]string, 0, len(d.blobs))
	for k := range d.blobs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if d.spec.Capacity-d.used >= need {
			break
		}
		d.used -= d.blobs[k].virtualSize
		delete(d.blobs, k)
	}
	return d.spec.Capacity-d.used >= need
}

// Node is one simulated compute node with a GPU tier and a host tier.
type Node struct {
	// Name identifies the node (e.g. "producer").
	Name string
	// GPU and Host are the node-local memory tiers.
	GPU, Host *Device
}

// NewNode builds a node with the default GPU and host tier specs.
func NewNode(name string, clock simclock.Clock) *Node {
	return &Node{Name: name, GPU: NewDevice(GPUSpec, clock), Host: NewDevice(HostSpec, clock)}
}

// Cluster is a producer/consumer pair sharing one PFS, the paper's
// two-node experimental topology.
type Cluster struct {
	// Producer and Consumer are the two compute nodes.
	Producer, Consumer *Node
	// PFS is the shared parallel file system.
	PFS *Device
}

// NewCluster builds the standard two-node + shared-PFS topology.
func NewCluster(clock simclock.Clock) *Cluster {
	return &Cluster{
		Producer: NewNode("producer", clock),
		Consumer: NewNode("consumer", clock),
		PFS:      NewDevice(PFSSpec, clock),
	}
}
