// storerecovery measures the durable chunk store end to end in three
// phases. Warm restart: a deep per-model history is committed,
// the store is closed, and reopening replays the manifest log against
// the segment files — the recovery time is what a restarting relay or
// producer pays before it can serve. Late joiner: fresh consumers join,
// by turns, a store-backed relay serving from its resident cache and a
// restarted one, where every version is a demoted shell whose chunks
// must be read back from segment files; the difference of the two install
// times is the price of durability on the serve path. Chaos: publishes
// run under an injector that fails a configurable fraction of store
// writes, and after every crash the directory is reopened and every
// surviving version fully reloaded, accumulating the corrupt-chunk
// count. TestGateStoreRecovery holds the floors.

package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"viper/internal/chunkstore"
	"viper/internal/faults"
	"viper/internal/kvstore"
	"viper/internal/nn"
	"viper/internal/pubsub"
	"viper/internal/relay"
	"viper/internal/remote"
	"viper/internal/vformat"
)

// StoreRecoveryConfig parameterizes the measurement.
type StoreRecoveryConfig struct {
	// Versions is the warm-restart history depth (the paper-scale run
	// recovers 64 versions).
	Versions int
	// Elems sizes each checkpoint; MutatePerStep elements move between
	// adjacent versions so content-addressed dedup sees a realistic
	// converged-training overlap.
	Elems         int
	MutatePerStep int
	// ChunkBytes is the wire/storage chunk size.
	ChunkBytes int
	// RelayVersions, RelayElems, and Trials shape the late-joiner
	// phase: the relay holds RelayVersions versions of a RelayElems
	// checkpoint (sized so the TCP transfer, not dial jitter, dominates
	// the install) and each serving mode is timed Trials times, the two
	// modes by turns (the minimum is reported, shedding scheduler noise).
	RelayVersions int
	RelayElems    int
	Trials        int
	// ChaosRounds publishes run against an injector failing FailRate of
	// store writes; every crash is followed by a reopen + full verify.
	ChaosRounds int
	FailRate    float64
	// Seed makes blob evolution and the fault schedule reproducible.
	Seed int64
	// Dir hosts the store directories (a temp dir from the caller).
	Dir string
}

// DefaultStoreRecoveryConfig is the configuration TestGateStoreRecovery runs.
func DefaultStoreRecoveryConfig(dir string) StoreRecoveryConfig {
	return StoreRecoveryConfig{
		Versions:      64,
		Elems:         20000,
		MutatePerStep: 400,
		ChunkBytes:    8 << 10,
		RelayVersions: 4,
		RelayElems:    1 << 20,
		Trials:        4,
		ChaosRounds:   40,
		FailRate:      0.15,
		Seed:          11,
		Dir:           dir,
	}
}

// StoreRecoveryResult reports all three phases.
type StoreRecoveryResult struct {
	// Warm restart: versions/chunks/bytes recovered and the manifest-log
	// replay time the reopening process paid.
	Versions   int
	Chunks     int
	StoreBytes int64
	RecoveryNS int64
	// Late joiner: connect-to-install time against the resident cache
	// vs. against demoted disk shells after a relay restart, and their
	// ratio. Identical reports that both installs matched the published
	// weights bit for bit.
	CacheNS       int64
	DiskNS        int64
	DiskOverCache float64
	Identical     bool
	// Chaos: injector decisions/failures, crash-reopen cycles, versions
	// that survived, and corrupt chunks seen across every post-crash
	// full reload.
	FaultOps       int64
	FaultsInjected int64
	Crashes        int
	ChaosVersions  int
	VerifiedLoads  int
	CorruptChunks  int64
}

// RunStoreRecovery runs the three phases in order.
func RunStoreRecovery(ctx context.Context, cfg StoreRecoveryConfig) (*StoreRecoveryResult, error) {
	if cfg.Versions <= 0 || cfg.Elems <= 0 || cfg.ChaosRounds <= 0 || cfg.Dir == "" {
		return nil, fmt.Errorf("experiments: storerecovery config %+v incomplete", cfg)
	}
	res := &StoreRecoveryResult{Identical: true}
	if err := runWarmRestart(ctx, cfg, res); err != nil {
		return nil, fmt.Errorf("experiments: warm restart: %w", err)
	}
	if err := runLateJoiner(cfg, res); err != nil {
		return nil, fmt.Errorf("experiments: late joiner: %w", err)
	}
	if err := runStoreChaos(ctx, cfg, res); err != nil {
		return nil, fmt.Errorf("experiments: chaos: %w", err)
	}
	return res, nil
}

// blobEvolver yields a sequence of chunked blobs whose adjacent
// versions overlap like converged training checkpoints: every step
// perturbs MutatePerStep of Elems elements and re-encodes.
type blobEvolver struct {
	cfg  StoreRecoveryConfig
	rng  *rand.Rand
	data []float64
}

func newBlobEvolver(cfg StoreRecoveryConfig) *blobEvolver {
	rng := rand.New(rand.NewSource(cfg.Seed))
	data := make([]float64, cfg.Elems)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	return &blobEvolver{cfg: cfg, rng: rng, data: data}
}

// next perturbs the weights and encodes version v as a chunked blob.
func (e *blobEvolver) next(ctx context.Context, v uint64) ([]byte, error) {
	for i := 0; i < e.cfg.MutatePerStep; i++ {
		e.data[e.rng.Intn(len(e.data))] += e.rng.NormFloat64() * 1e-3
	}
	ckpt := &vformat.Checkpoint{
		ModelName: "bench8", Version: v, Iteration: 10 * v, TrainLoss: 0.1,
		Weights: nn.Snapshot{{Name: "w", Shape: []int{len(e.data)}, Data: append([]float64(nil), e.data...)}},
	}
	return vformat.EncodeChunked(ctx, ckpt, vformat.ChunkOptions{ChunkBytes: e.cfg.ChunkBytes})
}

// runWarmRestart commits cfg.Versions evolving versions, closes the
// store, and reopens it, charging the manifest-log replay to RecoveryNS.
func runWarmRestart(ctx context.Context, cfg StoreRecoveryConfig, res *StoreRecoveryResult) error {
	dir := cfg.Dir + "/warm"
	s, err := chunkstore.Open(dir, chunkstore.Options{})
	if err != nil {
		return err
	}
	ev := newBlobEvolver(cfg)
	for v := 1; v <= cfg.Versions; v++ {
		blob, err := ev.next(ctx, uint64(v))
		if err != nil {
			s.Close()
			return err
		}
		if err := s.PutBlob("bench8", uint64(v), fmt.Sprintf("bench8/v%08d", v), blob); err != nil {
			s.Close()
			return err
		}
	}
	if err := s.Close(); err != nil {
		return err
	}

	s, err = chunkstore.Open(dir, chunkstore.Options{})
	if err != nil {
		return err
	}
	defer s.Close()
	st := s.Stats()
	res.Versions, res.Chunks, res.StoreBytes = st.Versions, st.Chunks, st.LiveBytes
	res.RecoveryNS = st.Recovery.Nanoseconds()
	if st.Versions != cfg.Versions {
		return fmt.Errorf("recovered %d versions, want %d", st.Versions, cfg.Versions)
	}
	if st.CorruptChunks != 0 {
		return fmt.Errorf("%d corrupt chunks after clean restart", st.CorruptChunks)
	}
	// The reopened store must actually serve: reload the full depth.
	for _, v := range s.Versions("bench8") {
		if _, err := s.LoadVersion("bench8", v); err != nil {
			return fmt.Errorf("reload v%d: %w", v, err)
		}
	}
	return nil
}

// runLateJoiner times a fresh consumer's connect-to-install against a
// store-backed relay with the versions resident in its cache, and against
// a restart of that relay, where every chunk is read back from disk. The
// restart opens a copy of the store directory, so both relays serve at
// once and their joins alternate: whatever else the machine runs weighs on
// both minima alike, not on whichever phase it happened to overlap.
func runLateJoiner(cfg StoreRecoveryConfig, res *StoreRecoveryResult) error {
	kvSrv := kvstore.NewServer(kvstore.NewStore())
	metaAddr, err := kvSrv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer kvSrv.Close()
	psSrv := pubsub.NewServer(pubsub.NewBroker(64))
	notifyAddr, err := psSrv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer psSrv.Close()

	dir := cfg.Dir + "/relay"
	r1, err := relay.New(relay.Config{
		IngestAddr: "127.0.0.1:0", ServeAddr: "127.0.0.1:0",
		MetaAddr: metaAddr, NotifyAddr: notifyAddr, StoreDir: dir,
	})
	if err != nil {
		return err
	}
	prod, err := remote.NewProducer(remote.ProducerConfig{
		Model: "bench8", MetaAddr: metaAddr, NotifyAddr: notifyAddr,
		RelayAddr: r1.IngestAddr(), ChunkSize: cfg.ChunkBytes,
	})
	if err != nil {
		r1.Close()
		return err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	elems := cfg.RelayElems
	if elems == 0 {
		elems = cfg.Elems
	}
	snap := nn.Snapshot{{Name: "w", Shape: []int{elems}, Data: make([]float64, elems)}}
	for i := range snap[0].Data {
		snap[0].Data[i] = rng.NormFloat64()
	}
	var want nn.Snapshot
	for v := 1; v <= cfg.RelayVersions; v++ {
		for i := 0; i < cfg.MutatePerStep; i++ {
			snap[0].Data[rng.Intn(elems)] += rng.NormFloat64() * 1e-3
		}
		if _, err := prod.Publish(snap, uint64(10*v), 0.1); err != nil {
			prod.Close()
			r1.Close()
			return err
		}
		want = snap.Clone()
	}
	if err := waitStored(r1, int64(cfg.RelayVersions)); err != nil {
		prod.Close()
		r1.Close()
		return err
	}
	prod.Close()
	defer r1.Close()

	// The restart: the hydrated versions are demoted shells and every
	// served chunk is a segment-file read. r1 writes nothing more once its
	// versions are stored (closing would only sync), so the copy holds what
	// a restart on dir would open.
	restarted := cfg.Dir + "/relay-restarted"
	if err := copyFiles(dir, restarted); err != nil {
		return err
	}
	r2, err := relay.New(relay.Config{
		IngestAddr: "127.0.0.1:0", ServeAddr: "127.0.0.1:0",
		MetaAddr: metaAddr, NotifyAddr: notifyAddr, StoreDir: restarted,
	})
	if err != nil {
		return err
	}
	defer r2.Close()
	if st := r2.Stats(); st.HydratedVersions != int64(cfg.RelayVersions) {
		return fmt.Errorf("hydrated %d versions, want %d", st.HydratedVersions, cfg.RelayVersions)
	}
	cacheNS, diskNS, err := timeJoins(cfg, metaAddr, notifyAddr, r1.ServeAddr(), r2.ServeAddr(), want, res)
	if err != nil {
		return err
	}
	res.CacheNS, res.DiskNS = cacheNS, diskNS
	if cacheNS > 0 {
		res.DiskOverCache = float64(diskNS) / float64(cacheNS)
	}
	return nil
}

// copyFiles copies the regular files of directory src into a new
// directory dst.
func copyFiles(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.Mkdir(dst, 0o755); err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// timeJoins measures connect-to-install for cfg.Trials fresh consumers
// against each of cacheAddr and diskAddr, taking the two by turns (which
// goes first alternates too), and returns each one's minimum, verifying
// every install against want.
func timeJoins(cfg StoreRecoveryConfig, metaAddr, notifyAddr, cacheAddr, diskAddr string, want nn.Snapshot, res *StoreRecoveryResult) (cacheNS, diskNS int64, err error) {
	for trial := 0; trial < cfg.Trials; trial++ {
		for turn := 0; turn < 2; turn++ {
			addr, best := cacheAddr, &cacheNS
			if (trial+turn)%2 == 1 {
				addr, best = diskAddr, &diskNS
			}
			elapsed, err := timeJoin(metaAddr, notifyAddr, addr, want, res)
			if err != nil {
				return 0, 0, err
			}
			if *best == 0 || elapsed < *best {
				*best = elapsed
			}
		}
	}
	return cacheNS, diskNS, nil
}

// timeJoin measures connect-to-install for one fresh consumer against
// serveAddr and checks the install against want.
func timeJoin(metaAddr, notifyAddr, serveAddr string, want nn.Snapshot, res *StoreRecoveryResult) (int64, error) {
	//lint:ignore simclockpurity the phase times a live TCP install end to end; wall clock is the measurement
	start := time.Now()
	cons, err := remote.NewConsumer(remote.ConsumerConfig{
		Model: "bench8", MetaAddr: metaAddr, NotifyAddr: notifyAddr,
		ProducerAddr: serveAddr, LinkWait: 2 * time.Second,
	})
	if err != nil {
		return 0, err
	}
	ckpt, err := cons.Next(30 * time.Second)
	//lint:ignore simclockpurity same: end of the wall-clock measurement window
	elapsed := time.Since(start).Nanoseconds()
	cons.Close()
	if err != nil {
		return 0, err
	}
	if !weightsEqual(ckpt.Weights, want) {
		res.Identical = false
	}
	return elapsed, nil
}

// weightsEqual compares two snapshots bit for bit.
func weightsEqual(a, b nn.Snapshot) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || len(a[i].Data) != len(b[i].Data) {
			return false
		}
		for j := range a[i].Data {
			if a[i].Data[j] != b[i].Data[j] {
				return false
			}
		}
	}
	return true
}

// waitStored blocks until the relay has persisted n versions.
func waitStored(r *relay.Relay, n int64) error {
	//lint:ignore simclockpurity polls a live relay's persistence progress over real TCP
	deadline := time.Now().Add(10 * time.Second)
	for r.Stats().StoredVersions < n {
		//lint:ignore simclockpurity same: real wall-clock polling
		if time.Now().After(deadline) {
			return fmt.Errorf("relay stored %d versions, want %d", r.Stats().StoredVersions, n)
		}
		//lint:ignore simclockpurity same: real wall-clock polling
		time.Sleep(time.Millisecond)
	}
	return nil
}

// runStoreChaos publishes under an injector failing FailRate of store
// writes; every crash is followed by a clean reopen and a full reload
// of every surviving version, accumulating the corrupt-chunk count.
func runStoreChaos(ctx context.Context, cfg StoreRecoveryConfig, res *StoreRecoveryResult) error {
	dir := cfg.Dir + "/chaos"
	ev := newBlobEvolver(cfg)
	blobs := make(map[uint64][]byte)

	inj := faults.New(faults.Config{Seed: cfg.Seed, FailRate: cfg.FailRate})
	s, err := chunkstore.Open(dir, chunkstore.Options{Injector: inj})
	if err != nil {
		return err
	}
	for v := 1; v <= cfg.ChaosRounds; v++ {
		blob, err := ev.next(ctx, uint64(v))
		if err != nil {
			s.Close()
			return err
		}
		err = s.PutBlob("bench8", uint64(v), fmt.Sprintf("bench8/v%08d", v), blob)
		switch {
		case err == nil:
			blobs[uint64(v)] = blob
		default:
			// Injected crash: the store is failed. Reopen cleanly,
			// verify everything that committed, then resume chaos.
			res.Crashes++
			s.Close()
			clean, err := chunkstore.Open(dir, chunkstore.Options{})
			if err != nil {
				return fmt.Errorf("reopen after crash %d: %w", res.Crashes, err)
			}
			for _, sv := range clean.Versions("bench8") {
				got, err := clean.LoadVersion("bench8", sv)
				if err != nil {
					clean.Close()
					return fmt.Errorf("post-crash reload v%d: %w", sv, err)
				}
				res.VerifiedLoads++
				if want, ok := blobs[sv]; ok && string(got) != string(want) {
					clean.Close()
					return fmt.Errorf("v%d corrupted across crash %d", sv, res.Crashes)
				}
			}
			res.CorruptChunks += clean.Stats().CorruptChunks
			if err := clean.Close(); err != nil {
				return err
			}
			s, err = chunkstore.Open(dir, chunkstore.Options{Injector: inj})
			if err != nil {
				return err
			}
			// The interrupted version is retried once without advancing;
			// a second failure just counts another crash next round.
			if err := s.PutBlob("bench8", uint64(v), fmt.Sprintf("bench8/v%08d", v), blob); err == nil {
				blobs[uint64(v)] = blob
			} else {
				res.Crashes++
				s.Close()
				s, err = chunkstore.Open(dir, chunkstore.Options{Injector: inj})
				if err != nil {
					return err
				}
			}
		}
	}
	s.Close()

	// Final verdict: a clean reopen must serve every committed version
	// byte-identically with zero corrupt chunks.
	clean, err := chunkstore.Open(dir, chunkstore.Options{})
	if err != nil {
		return err
	}
	defer clean.Close()
	for _, sv := range clean.Versions("bench8") {
		got, err := clean.LoadVersion("bench8", sv)
		if err != nil {
			return fmt.Errorf("final reload v%d: %w", sv, err)
		}
		res.VerifiedLoads++
		if want, ok := blobs[sv]; ok && string(got) != string(want) {
			return fmt.Errorf("v%d corrupted by chaos", sv)
		}
	}
	res.ChaosVersions = len(clean.Versions("bench8"))
	res.CorruptChunks += clean.Stats().CorruptChunks
	ist := inj.Stats()
	res.FaultOps, res.FaultsInjected = ist.Ops, ist.Failures
	if res.FaultsInjected == 0 {
		return fmt.Errorf("chaos phase injected no faults (%d ops)", res.FaultOps)
	}
	return nil
}
