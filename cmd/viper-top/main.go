// Command viper-top renders a running relay node's live metrics — the
// first-class observability surface over internal/metrics. It dials the
// relay's ingest address (the same wire viper-inspect -relay uses) and
// renders every registry the relay process exposes: transport link and
// TCP counters, relay cache and session state, the durable chunk
// store (when the relay runs with -store), and whichever of
// remote/pubsub/kvstore are linked into the node — the remote panel
// carries the delivery-path counters of every producer and consumer in
// the process, the stage flusher's (producer_stage_flushes,
// producer_stage_superseded, producer_stage_flush_ms), the builder's
// (consumer_prebuilt_installs, consumer_abandoned_builds) and the
// filler's, which hashes each install into the span source
// (consumer_cache_fill_ms, consumer_have_list_lag_ms,
// consumer_fill_superseded) and the delta path's work counts (records
// hashed against hashes inherited per publish: producer_hashed_chunks,
// producer_inherited_hashes; positions the span source covered without a
// record per install: consumer_inherited_chunks; delta installs patched
// into the prepared back buffer against buffers let go:
// consumer_prepared_installs, consumer_prepared_discards) among them; the relay panel carries the
// streamed read-through's (read_through_first_byte_ms, and
// read_ahead_waits — the send loop waited for the disk, not the link).
//
// Usage:
//
//	viper-top -relay 127.0.0.1:7464               # refresh every 2s
//	viper-top -relay 127.0.0.1:7464 -interval 5s  # custom refresh
//	viper-top -relay 127.0.0.1:7464 -once         # one snapshot, exit
//	viper-top -relay 127.0.0.1:7464 -once -json   # NDJSON snapshot
//
// With -json, each tick emits one NDJSON object per registry
// ({"kind":"metrics","registry":...,"points":[...]}) followed by one
// {"kind":"inventory",...} summary object — the same one-object-per-line
// convention as viper-inspect.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"viper/internal/metrics"
	"viper/internal/relay"
)

func main() {
	relayAddr := flag.String("relay", "", "relay ingest address to watch (required)")
	interval := flag.Duration("interval", 2*time.Second, "refresh interval")
	once := flag.Bool("once", false, "print one snapshot and exit")
	jsonOut := flag.Bool("json", false, "emit NDJSON instead of the text table")
	flag.Parse()
	if *relayAddr == "" {
		fmt.Fprintln(os.Stderr, "usage: viper-top -relay <ingest-addr> [-interval 2s] [-once] [-json]")
		os.Exit(2)
	}
	if *interval <= 0 {
		fmt.Fprintln(os.Stderr, "viper-top: -interval must be positive")
		os.Exit(2)
	}
	for tick := 1; ; tick++ {
		if err := render(os.Stdout, *relayAddr, tick, *jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "viper-top: %v\n", err)
			os.Exit(1)
		}
		if *once {
			return
		}
		time.Sleep(*interval)
	}
}

// jsonMetrics is one registry's NDJSON line.
type jsonMetrics struct {
	Kind     string          `json:"kind"` // "metrics"
	Registry string          `json:"registry"`
	Points   []metrics.Point `json:"points"`
}

// jsonInventory is the cache-summary NDJSON line. Stored counts the
// cached versions also persisted in the relay's durable chunk store
// (zero when the relay runs without -store).
type jsonInventory struct {
	Kind     string `json:"kind"` // "inventory"
	Versions int    `json:"versions"`
	Bytes    int64  `json:"bytes"`
	Stored   int    `json:"stored,omitempty"`
}

// render fetches one snapshot pair (metrics + inventory) and writes it.
func render(w io.Writer, addr string, tick int, jsonOut bool) error {
	snaps, err := relay.FetchMetrics(addr)
	if err != nil {
		return err
	}
	inv, err := relay.FetchInventory(addr)
	if err != nil {
		return err
	}
	var cachedBytes int64
	stored := 0
	for _, v := range inv {
		cachedBytes += v.Bytes
		if v.Stored {
			stored++
		}
	}
	if jsonOut {
		enc := json.NewEncoder(w)
		for _, s := range snaps {
			if err := enc.Encode(jsonMetrics{Kind: "metrics", Registry: s.Registry, Points: s.Points}); err != nil {
				return err
			}
		}
		return enc.Encode(jsonInventory{Kind: "inventory", Versions: len(inv), Bytes: cachedBytes, Stored: stored})
	}
	fmt.Fprintf(w, "=== viper-top  relay %s  tick %d ===\n", addr, tick)
	fmt.Fprintf(w, "cache: %d versions, %d bytes\n", len(inv), cachedBytes)
	if stored > 0 {
		fmt.Fprintf(w, "store: %d of %d versions durable\n", stored, len(inv))
	}
	fmt.Fprintln(w)
	for _, s := range snaps {
		if len(s.Points) == 0 {
			continue
		}
		fmt.Fprintln(w, s.Format())
	}
	return nil
}
