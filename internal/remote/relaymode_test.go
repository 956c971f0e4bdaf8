package remote

import (
	"testing"
	"time"

	"viper/internal/core"
	"viper/internal/kvstore"
	"viper/internal/nn"
	"viper/internal/pubsub"
	"viper/internal/transport"
)

// TestProducerRelayModeWire drives a relay-mode producer against a bare
// frame-capturing listener standing in for the relay, and checks the
// three wire-level contracts relay mode adds:
//
//  1. every frame is tagged with model/version so the relay can group a
//     stream without decoding payloads;
//  2. the header frame carries the producer's encoded ModelMeta under
//     core.RelayMetaTag for the relay to stamp and republish;
//  3. the producer's own staging copy, metadata write (Location
//     "relay"), and update notification still happen — relay mode must
//     degrade exactly like the direct path if the relay dies.
func TestProducerRelayModeWire(t *testing.T) {
	metaAddr, notifyAddr := testServices(t)

	ln, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	frames := make(chan transport.Frame, 64)
	go func() {
		link, err := ln.Accept()
		if err != nil {
			return
		}
		defer link.Close()
		for {
			f, err := link.Recv()
			if err != nil {
				return
			}
			frames <- f
		}
	}()

	ps, err := pubsub.DialClient(notifyAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	events, err := ps.Subscribe(core.UpdateChannel("m"))
	if err != nil {
		t.Fatal(err)
	}

	prod, err := NewProducer(ProducerConfig{
		Model: "m", MetaAddr: metaAddr, NotifyAddr: notifyAddr,
		RelayAddr: ln.Addr(), ChunkSize: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer prod.Close()

	meta, err := prod.Publish(nn.TakeSnapshot(testModel(70)), 10, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Location != core.RouteRelay {
		t.Fatalf("relay-mode publish reported location %q, want relay", meta.Location)
	}

	// (1)+(2): header frame tagged and carrying encoded relay meta.
	var header transport.Frame
	select {
	case header = <-frames:
	case <-time.After(5 * time.Second):
		t.Fatal("relay never received the header frame")
	}
	if !transport.IsChunkHeader(header) {
		t.Fatalf("first frame is not a chunk header: %v", header.Meta)
	}
	if header.Meta["model"] != "m" || header.Meta["version"] != "1" {
		t.Fatalf("header missing model/version tags: %v", header.Meta)
	}
	tagged, err := core.DecodeMeta(header.Meta[core.RelayMetaTag])
	if err != nil {
		t.Fatalf("header has no decodable %s tag: %v", core.RelayMetaTag, err)
	}
	if tagged.Name != "m" || tagged.Version != 1 || tagged.Iteration != 10 || tagged.Location != core.RouteRelay {
		t.Fatalf("tagged relay meta: %+v", tagged)
	}
	deadline := time.After(5 * time.Second)
	chunks := 0
	for {
		var f transport.Frame
		select {
		case f = <-frames:
		case <-deadline:
			t.Fatalf("stream incomplete after %d chunks", chunks)
		}
		if !transport.IsChunkFrame(f) {
			t.Fatalf("non-chunk frame mid-stream: %v", f.Meta)
		}
		if f.Meta["model"] != "m" || f.Meta["version"] != "1" {
			t.Fatalf("chunk missing model/version tags: %v", f.Meta)
		}
		chunks++
		if header.Meta[transport.MetaChunkCount] == "" {
			t.Fatal("header missing chunk count")
		}
		if want := header.Meta[transport.MetaChunkCount]; want != "" && chunks >= atoiOrZero(want) {
			break
		}
	}

	// (3): producer-side metadata + notification unchanged by relay mode.
	kv, err := kvstore.Dial(metaAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	raw, err := kv.Get(core.MetaKey("m"))
	if err != nil {
		t.Fatalf("producer skipped its own metadata write in relay mode: %v", err)
	}
	stored, err := core.DecodeMeta(raw)
	if err != nil {
		t.Fatal(err)
	}
	if stored.Version != 1 || stored.Location != core.RouteRelay {
		t.Fatalf("stored meta: %+v", stored)
	}
	select {
	case msg := <-events:
		notified, err := core.DecodeMeta(msg.Payload)
		if err != nil || notified.Version != 1 {
			t.Fatalf("notification payload: %v %v", notified, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("producer skipped its own notification in relay mode")
	}
	// The staging copy is flushed behind the notification.
	waitFor(t, "the producer's staging copy in relay mode", func() bool {
		_, err := kv.Get(core.StagingKey("m", 1))
		return err == nil
	})
}

func atoiOrZero(s string) int {
	n := 0
	for _, r := range s {
		if r < '0' || r > '9' {
			return 0
		}
		n = n*10 + int(r-'0')
	}
	return n
}
