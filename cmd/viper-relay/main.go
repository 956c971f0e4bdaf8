// Command viper-relay runs Viper's caching fan-out tier as a standalone
// process: it accepts one producer's version pushes on the ingest port,
// keeps each model's newest version's encoded chunk records in memory,
// and fans every complete version out to any number of consumers
// connected on the serve port — late joiners included, served straight
// from the relay.
// Point a relay-mode viper-producer (-relay) at the ingest address and
// any number of viper-consumer processes at the serve address.
//
// Usage:
//
//	viper-relay -meta 127.0.0.1:7461 -notify 127.0.0.1:7462 \
//	    -ingest 127.0.0.1:7464 -serve 127.0.0.1:7465 -store /var/lib/viper-relay
//
// Without -store the relay keeps only each model's newest version. With
// -store, it also persists every ingested version to a durable keyed
// chunk store in the given directory and recovers its full inventory
// from it on restart, so late joiners can be served history that
// predates the process; a superseded version is demoted to a disk shell
// instead of dropped. -store-keep, -store-bytes, and -store-age bound the
// on-disk history (zero means unbounded).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"viper/internal/chunkstore"
	"viper/internal/debugsrv"
	"viper/internal/relay"
)

func main() {
	metaAddr := flag.String("meta", "127.0.0.1:7461", "metadata store address (empty disables relay metadata writes)")
	notifyAddr := flag.String("notify", "127.0.0.1:7462", "notification broker address (empty disables relay republishing)")
	ingestAddr := flag.String("ingest", "127.0.0.1:7464", "address to accept the producer's version pushes on")
	serveAddr := flag.String("serve", "127.0.0.1:7465", "address to accept consumer links on")
	storeDir := flag.String("store", "", "directory for the durable chunk store (empty disables persistence)")
	storeKeep := flag.Int("store-keep", 0, "stored versions kept per model (0 = unbounded; requires -store)")
	storeBytes := flag.Int64("store-bytes", 0, "stored payload bytes kept per model (0 = unbounded; requires -store)")
	storeAge := flag.Duration("store-age", 0, "maximum stored version age (0 = unbounded; requires -store)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof and a /metrics JSON dump of every registry on this address (empty = off)")
	flag.Parse()

	r, err := relay.New(relay.Config{
		IngestAddr: *ingestAddr,
		ServeAddr:  *serveAddr,
		MetaAddr:   *metaAddr,
		NotifyAddr: *notifyAddr,
		StoreDir:   *storeDir,
		StoreRetention: chunkstore.Retention{
			MaxVersions: *storeKeep,
			MaxBytes:    *storeBytes,
			MaxAge:      *storeAge,
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "viper-relay: %v\n", err)
		os.Exit(1)
	}

	dbg, err := debugsrv.Start(*debugAddr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "viper-relay: %v\n", err)
		r.Close()
		os.Exit(1)
	}
	defer dbg.Close()

	fmt.Printf("viper-relay: ingest on %s, serving consumers on %s\n", r.IngestAddr(), r.ServeAddr())
	if *storeDir != "" {
		st := r.Stats()
		fmt.Printf("viper-relay: durable store at %s (%d versions recovered)\n",
			*storeDir, st.HydratedVersions)
	}
	if dbg != nil {
		fmt.Printf("viper-relay: debug endpoint on http://%s/debug/pprof/\n", dbg.Addr())
	}
	fmt.Println("viper-relay: press Ctrl-C to stop")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("viper-relay: shutting down")
	r.Close()
	st := r.Stats()
	fmt.Printf("viper-relay: cached %d versions, served %d fan-outs to %d sessions (%d superseded mid-stream)\n",
		st.CachedVersions, st.ServedVersions, st.Sessions, st.AbandonedFanouts)
	if *storeDir != "" {
		fmt.Printf("viper-relay: stored %d versions, demoted %d to disk (%d store errors)\n",
			st.StoredVersions, st.DemotedVersions, st.StoreErrors)
	}
}
