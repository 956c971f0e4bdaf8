package relay

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"viper/internal/chunkstore"
	"viper/internal/metrics"
	"viper/internal/remote"
	"viper/internal/transport"
)

// counterValues reads every counter of a registry.
func counterValues(reg *metrics.Registry) map[string]int64 {
	vals := make(map[string]int64)
	for _, p := range reg.Snapshot().Points {
		if p.Kind == metrics.KindCounter {
			vals[p.Name] = p.Value
		}
	}
	return vals
}

// addTagged adds stats' tagged fields into sum, keyed by the instrument
// each tag names.
func addTagged(sum map[string]int64, stats any) {
	v := reflect.ValueOf(stats)
	for i := 0; i < v.NumField(); i++ {
		if name, ok := v.Type().Field(i).Tag.Lookup("metric"); ok {
			sum[name] += v.Field(i).Int()
		}
	}
}

// TestInstancesCountTheirOwnAndTheRegistryTheSum: two relays and two
// consumers in one process. Each Stats() counts its own events and only
// those; every registry counter moved by exactly the sum, with no flush
// anywhere; and both still read the same after Close.
func TestInstancesCountTheirOwnAndTheRegistryTheSum(t *testing.T) {
	metaAddr, notifyAddr := testServices(t)
	relayBefore, remoteBefore := counterValues(Metrics()), counterValues(remote.Metrics())
	relays := make(map[string]*Relay)
	consumers := make(map[string]*remote.Consumer)
	for _, model := range []string{"a", "b"} {
		r, err := New(Config{
			IngestAddr: "127.0.0.1:0", ServeAddr: "127.0.0.1:0", MetaAddr: metaAddr, NotifyAddr: notifyAddr,
			Retry: quickPolicy(1),
		})
		if err != nil {
			t.Fatal(err)
		}
		c, err := remote.NewConsumer(remote.ConsumerConfig{
			Model: model, MetaAddr: metaAddr, NotifyAddr: notifyAddr,
			ProducerAddr: r.ServeAddr(), Retry: quickPolicy(2), DisableDeltaReconcile: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		relays[model], consumers[model] = r, c
	}
	// Model "a" gets two versions through its relay, model "b" one.
	for _, push := range []struct {
		model   string
		version uint64
	}{{"a", 1}, {"b", 1}, {"a", 2}} {
		link, err := transport.DialTCP(relays[push.model].IngestAddr())
		if err != nil {
			t.Fatal(err)
		}
		pushChunked(t, link, push.model, push.version, wideSnapshot(int64(push.version)), 128)
		ckpt, err := consumers[push.model].Next(10 * time.Second)
		if err != nil || ckpt.Version != push.version {
			t.Fatalf("consumer of %q: %v, %v; want v%d", push.model, ckpt, err, push.version)
		}
		link.Close()
	}
	for model, want := range map[string]int64{"a": 2, "b": 1} {
		r, c := relays[model], consumers[model]
		waitFor(t, 10*time.Second, func() bool { return r.Stats().ServedVersions == want }, "fan-outs counted")
		if st := r.Stats(); st.CachedVersions != want || st.Sessions != 1 || st.IngestFrames == 0 {
			t.Fatalf("relay of %q counts %+v, want its own %d versions and one session", model, st, want)
		}
		if st := c.Stats(); st.LinkLoads != want || st.StagedLoads != 0 {
			t.Fatalf("consumer of %q counts %+v, want its own %d link loads", model, st, want)
		}
	}
	check := func(when string) {
		t.Helper()
		relaySum, remoteSum := make(map[string]int64), make(map[string]int64)
		for model := range relays {
			addTagged(relaySum, relays[model].Stats())
			addTagged(remoteSum, consumers[model].Stats())
		}
		relayNow, remoteNow := counterValues(Metrics()), counterValues(remote.Metrics())
		for name, sum := range relaySum {
			if got := relayNow[name] - relayBefore[name]; got != sum {
				t.Errorf("%s: relay registry %s moved by %d, the two relays count %d", when, name, got, sum)
			}
		}
		for name, sum := range remoteSum {
			if got := remoteNow[name] - remoteBefore[name]; got != sum {
				t.Errorf("%s: remote registry %s moved by %d, the two consumers count %d", when, name, got, sum)
			}
		}
	}
	check("live")
	live := relays["a"].Stats()
	for model := range relays {
		consumers[model].Close()
		closeChecked(t, relays[model])
	}
	if closed := relays["a"].Stats(); closed.CachedVersions != live.CachedVersions || closed.ServedVersions != live.ServedVersions {
		t.Fatalf("relay stats after Close %+v, before %+v", closed, live)
	}
	check("after Close")
}

// TestStatsReadDuringIngestAndFanout: four goroutines read Stats() and the
// registries flat out while 200 frames are ingested, stored and fanned out.
// Readers take no lock and see no torn event: every counter only grows, and
// a commit's CachedVersions — which moves last — never runs ahead of the
// StoredVersions counted before it.
func TestStatsReadDuringIngestAndFanout(t *testing.T) {
	r := storeRelay(t, t.TempDir(), chunkstore.Retention{})
	cons, err := transport.DialTCP(r.ServeAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	go func() { // a consumer that reads whatever is fanned out
		for {
			if _, err := cons.Recv(); err != nil {
				return
			}
		}
	}()
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var last Stats
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := r.Stats()
				if st.StoredVersions < st.CachedVersions {
					t.Errorf("read %d versions cached, %d stored: the commit's last counter ran ahead", st.CachedVersions, st.StoredVersions)
					return
				}
				cur, prev := reflect.ValueOf(st), reflect.ValueOf(last)
				for f := 0; f < cur.NumField(); f++ {
					if cur.Field(f).Int() < prev.Field(f).Int() {
						t.Errorf("%s went from %d to %d", cur.Type().Field(f).Name, prev.Field(f).Int(), cur.Field(f).Int())
						return
					}
				}
				last = st
				metrics.AllSnapshots()
			}
		}()
	}
	link, err := transport.DialTCP(r.IngestAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	var pushed int64
	for r.Stats().IngestFrames < 200 {
		pushed++
		pushChunked(t, link, "m", uint64(pushed), wideSnapshot(pushed), 128)
		waitFor(t, 10*time.Second, func() bool { return r.Stats().CachedVersions == pushed }, "the push cached")
	}
	waitFor(t, 10*time.Second, func() bool {
		st := r.Stats()
		return st.ServedVersions+st.AbandonedFanouts >= 1 && st.StoredVersions == pushed
	}, "a fan-out finished")
	close(stop)
	readers.Wait()
}
