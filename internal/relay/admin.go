package relay

import (
	"encoding/json"
	"fmt"

	"viper/internal/metrics"
	"viper/internal/transport"
)

// InventoryKey is the frame key of the inventory request/reply exchange
// on the ingest address: a client sends an empty frame under this key
// and receives one frame whose payload is the JSON-encoded []VersionInfo
// (viper-inspect's -relay mode uses FetchInventory).
const InventoryKey = "viper/relay/inventory"

// MetricsKey is the frame key of the metrics request/reply exchange on
// the ingest address: the reply payload is the JSON-encoded
// []metrics.Snapshot of the node's registries (viper-top uses
// FetchMetrics).
const MetricsKey = "viper/relay/metrics"

// RejectKey is the frame key of rejection notices, sent off-stream with
// a "reason" Meta entry. The relay admits every session and every push —
// overload control is TCP back-pressure plus latest-wins (DESIGN §10) — so
// the one reason it sends is "resend".
const RejectKey = "viper/relay/reject"

// rejectReasonResend marks records the consumer is waiting for and the
// relay cannot deliver — a need-list it could not satisfy (the chunks
// left the store), or a store read that failed in the middle of a
// fan-out: the off-stream notice tears the consumer's collect cleanly
// so it falls back to a full fetch rather than waiting for records
// that will never come.
const rejectReasonResend = "resend"

// rejectFrame builds the wire notice for a refusal.
func rejectFrame(reason, model, version string) transport.Frame {
	return transport.Frame{Key: RejectKey, Meta: map[string]string{
		"reason": reason, "model": model, "version": version,
	}}
}

// VersionInfo is one cached version's inventory entry.
type VersionInfo struct {
	// Model is the model name.
	Model string `json:"model"`
	// Version is the checkpoint version.
	Version uint64 `json:"version"`
	// Key is the frame key the version travels under.
	Key string `json:"key"`
	// Chunks is the chunk-frame count.
	Chunks int `json:"chunks"`
	// Bytes is the logical payload size across all frames (what a full
	// fan-out of this version ships).
	Bytes int64 `json:"bytes"`
	// Deduped is how many of the version's positions carry the key the
	// model's previous newest version held there when it arrived
	// (cross-version dedup; always 0 for a version pushed without the
	// reconcile tag).
	Deduped int `json:"deduped"`
	// Delta reports whether the version was ingested as a
	// manifest+missing delta stream rather than a full push.
	Delta bool `json:"delta"`
	// Hashes lists the keys the version's chunks are filed under (hex,
	// chunk order): their content hashes when the push carried the
	// reconcile tag, keys unique to the push otherwise.
	Hashes []string `json:"hashes,omitempty"`
	// Stored reports whether the version is persisted in the relay's
	// durable chunk store (and so survives a relay restart).
	Stored bool `json:"stored,omitempty"`
}

// Inventory snapshots the cache, sorted by model then version.
func (r *Relay) Inventory() []VersionInfo { return r.cat.inventory() }

// fetch dials a relay's ingest address and runs the request/reply
// exchange of key, decoding the reply's JSON payload into a T.
func fetch[T any](addr, key, what string) (out T, err error) {
	link, err := transport.DialTCP(addr)
	if err != nil {
		return out, err
	}
	defer link.Close()
	if err := link.Send(transport.Frame{Key: key}); err != nil {
		return out, fmt.Errorf("relay: %s request: %w", what, err)
	}
	f, err := link.Recv()
	if err != nil {
		return out, fmt.Errorf("relay: %s reply: %w", what, err)
	}
	if f.Key != key {
		return out, fmt.Errorf("relay: unexpected %s reply key %q", what, f.Key)
	}
	if err := json.Unmarshal(f.Payload, &out); err != nil {
		return out, fmt.Errorf("relay: %s payload: %w", what, err)
	}
	return out, nil
}

// FetchInventory retrieves the cached version inventory of the relay
// whose ingest address is addr.
func FetchInventory(addr string) ([]VersionInfo, error) {
	return fetch[[]VersionInfo](addr, InventoryKey, "inventory")
}

// FetchMetrics retrieves the snapshots of every metrics registry in the
// node whose ingest address is addr (viper-top's data source).
func FetchMetrics(addr string) ([]metrics.Snapshot, error) {
	return fetch[[]metrics.Snapshot](addr, MetricsKey, "metrics")
}
