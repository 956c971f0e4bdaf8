package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"viper/internal/chunkstore"
	"viper/internal/relay"
	"viper/internal/remote"
	"viper/internal/transport"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single run prints (the driver's contract).
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is one single-workload run.
type runConfig struct {
	sp      spec
	sc      scale
	seed    int64
	seconds int
	dir     string // parent of the store directories
	outDir  string // where the traced run writes its span file
}

// counters are the process- and registry-wide counts read at the edges
// of a timed window.
type counters struct {
	cpu           time.Duration
	alloc         uint64
	gcCycles      uint32
	gcPauseNS     uint64
	wireBytes     int64
	wireFrames    int64
	corruptFrames int64
	storeCommits  int64
	ingestFrames  int64
	dedupedChunks int64
	producerSends int64
	cons          remote.ConsumerStats
}

func readCounters(st *stack) counters {
	var c counters
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.alloc, c.gcCycles, c.gcPauseNS = ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs
	if st.rel != nil {
		st.rel.Stats() // flushes the relay's counters into its registry
	}
	c.cons = st.consumerStats()
	tm := transport.Metrics()
	c.wireBytes = tm.Counter("tcp_bytes_sent").Value()
	c.wireFrames = tm.Counter("tcp_frames_sent").Value()
	c.corruptFrames = tm.Counter("tcp_corrupt_frames").Value()
	c.storeCommits = chunkstore.Metrics().Counter("committed_versions").Value()
	c.ingestFrames = relay.Metrics().Counter("ingest_frames").Value()
	c.dedupedChunks = relay.Metrics().Counter("deduped_chunks").Value()
	c.producerSends = remote.Metrics().Counter("producer_link_sends").Value()
	return c
}

// peakRSSMiB is the process's high-water resident set.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// window is one timed stretch of ops with the counters at its edges.
type window struct {
	samples []sample // in op order
	before  counters
	after   counters
}

// measure runs the closed loop on st for dur (or sc.fixedOps ops), one
// op in flight. With alternate set, every second op is traced and the
// window is twice as long in ops, so the traced and the untraced ops
// see the same stack and the same machine state.
func measure(st *stack, sc scale, dur time.Duration, alternate bool) window {
	var w window
	w.before = readCounters(st)
	deadline := time.Now().Add(dur)
	limit := sc.fixedOps
	if alternate {
		limit *= 2
	}
	for i := 0; ; i++ {
		if limit > 0 {
			if i == limit {
				break
			}
		} else if i > 0 && !time.Now().Before(deadline) {
			break
		}
		id := 0
		if alternate && i%2 == 1 {
			id = i
		}
		w.samples = append(w.samples, st.op(id))
	}
	w.after = readCounters(st)
	return w
}

// consumerStats sums the stack's consumer counters, including the
// cold-join consumers that are already closed.
func (st *stack) consumerStats() remote.ConsumerStats {
	sum := st.joined
	for _, c := range st.cons {
		addStats(&sum, c.Stats())
	}
	return sum
}

// addStats adds the counters the benchmark reports from cs to sum.
func addStats(sum *remote.ConsumerStats, cs remote.ConsumerStats) {
	sum.LinkLoads += cs.LinkLoads
	sum.StagedLoads += cs.StagedLoads
	sum.SkippedVersions += cs.SkippedVersions
	sum.DeltaLoads += cs.DeltaLoads
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the middle of vals (mean of the two middles when even).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of vals that still has at least
// ten samples beyond it, and that percentile.
func tail(vals []float64) (value, pct float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n <= 20 {
		return median(s), 50
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}

func pick(samples []sample, f func(sample) time.Duration) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = ms(f(s))
	}
	return out
}

func failures(samples []sample) (failed int, first error) {
	for _, s := range samples {
		if s.err != nil {
			if first == nil {
				first = s.err
			}
			failed++
		}
	}
	return failed, first
}

// tally counts the failed ops of a run, reports the first failure on
// standard error, and fails the run only when no op succeeded (there is
// then nothing to divide by).
func tally(name string, samples []sample) (failed int, err error) {
	failed, first := failures(samples)
	if failed == len(samples) {
		return failed, fmt.Errorf("%s: every op failed: %w", name, first)
	}
	if first != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d ops failed, first: %v\n", name, failed, len(samples), first)
	}
	return failed, nil
}

// runUntraced is a --trace 0 run: it sets the workload up sc.setups
// times, measures on each stack for an equal share of the run, and
// returns the end-to-end metrics over all of them: set-up time is the
// median over set-ups, and state one stack happens to land in (socket
// buffers, where its 16 MiB buffers sit) is averaged over several.
func runUntraced(cfg runConfig) (result, error) {
	var setups, seedStalls []float64
	var samples []sample
	var cpu time.Duration
	var alloc, wire float64
	share := time.Duration(cfg.seconds) * time.Second / time.Duration(cfg.sc.setups)
	for i := 0; i < cfg.sc.setups; i++ {
		t0 := time.Now()
		st, err := setUp(cfg.sp, cfg.sc, cfg.seed, cfg.dir, nil)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		for _, d := range st.seedStalls {
			seedStalls = append(seedStalls, ms(d))
		}
		w := measure(st, cfg.sc, share, false)
		st.tearDown()
		samples = append(samples, w.samples...)
		cpu += w.after.cpu - w.before.cpu
		alloc += float64(w.after.alloc - w.before.alloc)
		wire += float64(w.after.wireBytes - w.before.wireBytes)
	}
	failed, err := tally(cfg.sp.name, samples)
	if err != nil {
		return result{}, err
	}
	stalls := pick(samples, func(s sample) time.Duration { return s.stall })
	if cfg.sp.coldJoin {
		stalls = seedStalls
	}
	var busy time.Duration
	for _, s := range samples {
		busy += s.ready
	}
	payload := float64(cfg.sc.payloadBytes()) * float64(len(samples)-failed)
	mib := payload / (1 << 20)
	return result{
		Correct: failed == 0, Attempted: len(samples), Failed: failed,
		Metrics: map[string]metric{
			"ready_ms_p50":                 {median(pick(samples, func(s sample) time.Duration { return s.ready })), "ms"},
			"stall_ms_p50":                 {median(stalls), "ms"},
			"goodput_mib_s":                {mib / busy.Seconds(), "MiB/s"},
			"cpu_ms_per_mib":               {ms(cpu) / mib, "ms/MiB"},
			"alloc_bytes_per_payload_byte": {alloc / payload, "B/B"},
			"wire_bytes_per_payload_byte":  {wire / payload, "B/B"},
			"setup_s":                      {median(setups), "s"},
		},
	}, nil
}

// runTraced is a --trace 1 run: isolated timings of every layer's public
// functions, then one stack with the conn wrappers installed, on which
// every second op is traced. It returns the per-layer metrics and writes
// the spans to outDir/trace-<workload>.jsonl.
func runTraced(cfg runConfig) (result, error) {
	goroutinesBefore := runtime.NumGoroutine()
	m, err := layerTimings(cfg)
	if err != nil {
		return result{}, fmt.Errorf("isolated layer timings: %w", err)
	}
	tr := newTracer()
	st, err := setUp(cfg.sp, cfg.sc, cfg.seed, cfg.dir, tr)
	if err != nil {
		return result{}, err
	}
	w := measure(st, cfg.sc, time.Duration(cfg.seconds)*time.Second, true)
	relStats := st.relayStats()
	cacheBytes := relay.Metrics().Gauge("cache_bytes").Value()
	st.tearDown()
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return result{}, err
	}
	if err := tr.writeJSONL(filepath.Join(cfg.outDir, "trace-"+cfg.sp.name+".jsonl")); err != nil {
		return result{}, err
	}

	samples := w.samples
	failed, err := tally(cfg.sp.name, samples)
	if err != nil {
		return result{}, err
	}
	var plain, traced []sample
	for _, s := range samples {
		if s.traced {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
	}
	ready := func(s sample) time.Duration { return s.ready }
	plainReady := pick(plain, ready)
	tailMS, tailPct := tail(plainReady)
	m["remote.ready_ms_tail"] = metric{tailMS, "ms"}
	m["remote.ready_tail_pct"] = metric{tailPct, "%"}
	m["remote.ready_samples"] = metric{float64(len(plainReady)), "count"}
	m["proc.trace_overhead_pct"] = metric{100 * (median(pick(traced, ready)) - median(plainReady)) / median(plainReady), "%"}

	// Spans: the median over the traced ops of each span's duration.
	byName := make(map[string][]float64)
	var coverage []float64
	negative := 0
	for _, s := range traced {
		if s.err != nil {
			continue
		}
		for name, d := range s.spans.ms {
			byName[name] = append(byName[name], d)
		}
		coverage = append(coverage, s.spans.coverage)
		negative += s.spans.negative
	}
	for _, name := range []string{
		"remote.publish_to_first_byte", "remote.link_tx", "remote.stage_notify", "remote.install_tail",
		"remote.have_list_wait", "remote.connect",
		"relay.ingest", "relay.commit", "relay.serve", "relay.read_through",
	} {
		m[name+"_ms"] = metric{median(byName[name]), "ms"} // 0 where the span is not on this workload's path
	}
	m["relay.fanout_skew_ms"] = metric{median(pick(samples, func(s sample) time.Duration { return s.skew })), "ms"}
	m["remote.chain_coverage_share"] = metric{median(coverage), "share"}
	m["proc.trace_negative_self_spans"] = metric{float64(negative), "count"}

	// Counts and ratios over the window, traced and untraced ops together.
	d := func(after, before int64) float64 { return float64(after - before) }
	ops := float64(len(samples))
	cons := w.after.cons
	installs := d(cons.LinkLoads, w.before.cons.LinkLoads) + d(cons.StagedLoads, w.before.cons.StagedLoads)
	skipped := d(cons.SkippedVersions, w.before.cons.SkippedVersions)
	m["transport.frames_per_version"] = metric{d(w.after.wireFrames, w.before.wireFrames) / ops, "count"}
	m["transport.tcp_corrupt_frames"] = metric{float64(w.after.corruptFrames), "count"}
	m["remote.staged_load_share"] = metric{share(d(cons.StagedLoads, w.before.cons.StagedLoads), installs), "share"}
	m["remote.skipped_version_share"] = metric{share(skipped, installs+skipped), "share"}
	m["remote.delta_load_share"] = metric{share(d(cons.DeltaLoads, w.before.cons.DeltaLoads), installs), "share"}
	m["remote.publishes_per_op"] = metric{d(w.after.producerSends, w.before.producerSends) / ops, "count"}
	ingest := d(w.after.ingestFrames, w.before.ingestFrames)
	m["relay.ingest_frames_per_op"] = metric{ingest / ops, "count"}
	m["relay.deduped_chunk_share"] = metric{share(d(w.after.dedupedChunks, w.before.dedupedChunks), ingest), "share"}
	m["relay.store_errors"] = metric{float64(relStats.StoreErrors), "count"}
	m["relay.corrupt_chunks"] = metric{float64(relStats.CorruptChunks), "count"}
	m["relay.abandoned_fanouts"] = metric{float64(relStats.AbandonedFanouts), "count"}
	m["relay.cache_bytes_per_payload_byte"] = metric{0, "B/B"}
	if cfg.sp.relay {
		m["relay.cache_bytes_per_payload_byte"] = metric{float64(cacheBytes) / float64(cfg.sc.payloadBytes()), "B/B"}
	}
	m["chunkstore.commits_per_op"] = metric{d(w.after.storeCommits, w.before.storeCommits) / ops, "count"}

	m["proc.failed_ops_share"] = metric{float64(failed) / ops, "share"}
	m["proc.peak_rss_mib"] = metric{peakRSSMiB(), "MiB"}
	m["proc.gc_cycles"] = metric{float64(w.after.gcCycles - w.before.gcCycles), "count"}
	m["proc.gc_pause_ms_total"] = metric{float64(w.after.gcPauseNS-w.before.gcPauseNS) / 1e6, "ms"}
	m["proc.goroutines_leaked"] = metric{float64(leakedGoroutines(goroutinesBefore)), "count"}
	return result{Correct: failed == 0, Attempted: len(samples), Failed: failed, Metrics: m}, nil
}

func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

func (st *stack) relayStats() relay.Stats {
	if st.rel == nil {
		return relay.Stats{}
	}
	return st.rel.Stats()
}

// leakedGoroutines waits for the torn-down stacks' goroutines to exit
// and returns how many more are left than before set-up.
func leakedGoroutines(before int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine() - before; n > 0 {
		return n
	}
	return 0
}
