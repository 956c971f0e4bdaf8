// Package core implements the Viper framework itself (paper §4): the
// Checkpoint Callback that hooks the training loop, the Model Weights
// Handler (the memory-first transfer engine with its transfer strategies),
// the metadata schema stored in the shared KV store, the double-buffered
// consumer-side model swap, and the producer/consumer runtime that ties
// them to the notification module.
package core

import (
	"encoding/json"
	"fmt"
	"time"
)

// Route names a transfer strategy's data path.
type Route string

// The three data paths of the paper's evaluation.
const (
	// RouteGPU is direct GPU-to-GPU memory transfer (GPUDirect-style).
	RouteGPU Route = "gpu"
	// RouteHost is host-to-host DRAM transfer over the interconnect.
	RouteHost Route = "host"
	// RoutePFS stages the checkpoint through the parallel file system.
	RoutePFS Route = "pfs"
	// RouteRelay marks checkpoints delivered through a caching fan-out
	// relay node (internal/relay): the producer pushed the encoded
	// stream to the relay once, and consumers are served from the
	// relay's chunk cache. It appears only in metadata Locations, never
	// as a producer transfer Strategy.
	RouteRelay Route = "relay"
)

// Mode selects blocking behaviour on the producer.
type Mode string

// Save modes.
const (
	// ModeSync blocks training until the checkpoint reaches the wire.
	ModeSync Mode = "sync"
	// ModeAsync copies the snapshot to a staging buffer and returns; a
	// background path completes the delivery. Slightly higher end-to-end
	// latency (one extra copy), much lower training stall.
	ModeAsync Mode = "async"
)

// Strategy is a complete transfer configuration.
type Strategy struct {
	// Route is the data path.
	Route Route
	// Mode is the producer blocking behaviour (PFS transfers are always
	// synchronous writes, as in the paper's evaluation).
	Mode Mode
	// Baseline selects the h5py-style baseline (h5lite serialization via
	// PFS with fragmented-I/O overhead) instead of Viper's lean format.
	Baseline bool
}

// String renders the strategy as it appears in the paper's figures.
func (s Strategy) String() string {
	if s.Baseline {
		return "baseline-h5"
	}
	switch s.Route {
	case RoutePFS:
		return "viper-pfs"
	default:
		return fmt.Sprintf("viper-%s-%s", s.Mode, s.Route)
	}
}

// Validate reports configuration errors.
func (s Strategy) Validate() error {
	switch s.Route {
	case RouteGPU, RouteHost, RoutePFS:
	default:
		return fmt.Errorf("core: unknown route %q", s.Route)
	}
	if s.Baseline && s.Route != RoutePFS {
		return fmt.Errorf("core: baseline strategy requires the PFS route, got %q", s.Route)
	}
	if s.Route != RoutePFS {
		switch s.Mode {
		case ModeSync, ModeAsync:
		default:
			return fmt.Errorf("core: unknown mode %q", s.Mode)
		}
	}
	return nil
}

// ModelMeta is the checkpoint metadata Viper stores in the shared KV
// store (paper Figure 3: name, version, size, location, path).
type ModelMeta struct {
	// Name is the model identifier.
	Name string `json:"name"`
	// Version is the monotonically increasing checkpoint version.
	Version uint64 `json:"version"`
	// Iteration is the training iteration of the snapshot.
	Iteration uint64 `json:"iteration"`
	// TrainLoss is the loss at Iteration.
	TrainLoss float64 `json:"train_loss"`
	// Location is the tier holding the latest copy ("gpu", "host", "pfs").
	Location Route `json:"location"`
	// Path is the storage key under Location.
	Path string `json:"path"`
	// Size is the accounted (virtual) checkpoint size in bytes.
	Size int64 `json:"size"`
	// Format is the serialization: "vchunk" (chunked v2, Viper's one
	// encoding); "vformat" (lean v1) and "h5" appear only on the
	// in-process simulator's reference baselines.
	Format string `json:"format"`
	// Relay is the serve address of the relay node caching this version
	// (Location == "relay" only; filled in by the relay itself, empty in
	// the producer's optimistic pre-send copy).
	Relay string `json:"relay,omitempty"`
	// StagePending marks a version announced while its KV staging copy
	// was still being flushed behind the link stream: a consumer that
	// finds no staged copy yet should retry for a bounded time instead of
	// counting the version lost. Absent, a missing copy is final.
	StagePending bool `json:"stage_pending,omitempty"`
	// SavedAt is the clock time the save completed.
	SavedAt time.Time `json:"saved_at"`
}

// RelayMetaTag is the frame-metadata key under which a relay-mode
// producer attaches the encoded ModelMeta of the version it is pushing.
// The relay decodes it when the version's stream completes, stamps its
// own serve address into the Relay field, and republishes — so relay
// metadata/notifications carry the producer's iteration and loss
// without the relay ever decoding checkpoint payloads.
const RelayMetaTag = "relay-meta"

// MetaKey returns the KV key for a model's latest metadata.
func MetaKey(model string) string { return "viper/meta/" + model }

// UpdateChannel returns the pub/sub channel for a model's update events.
func UpdateChannel(model string) string { return "viper/updates/" + model }

// Encode serializes the metadata for the KV store.
func (m *ModelMeta) Encode() (string, error) {
	b, err := json.Marshal(m)
	if err != nil {
		return "", fmt.Errorf("core: encoding metadata: %w", err)
	}
	return string(b), nil
}

// DecodeMeta parses metadata from the KV store.
func DecodeMeta(s string) (*ModelMeta, error) {
	var m ModelMeta
	if err := json.Unmarshal([]byte(s), &m); err != nil {
		return nil, fmt.Errorf("core: decoding metadata: %w", err)
	}
	return &m, nil
}

// CheckpointKey returns the storage key for a model version.
func CheckpointKey(model string, version uint64) string {
	return fmt.Sprintf("%s/v%08d", model, version)
}

// StagingKey returns the KV key under which a remote producer stages a
// checkpoint payload for the PFS-fallback delivery path: when the
// direct link is faulted, the consumer backfills the update from here
// instead (the analogue of the paper's degradation from RDMA transfer
// to PFS staging).
func StagingKey(model string, version uint64) string {
	return "viper/stage/" + CheckpointKey(model, version)
}
