package transport

import (
	"sync"
	"testing"

	"viper/internal/simclock"
)

func BenchmarkLinkSendRecv(b *testing.B) {
	l := NewLink(GPUDirectSpec, simclock.NewVirtual(), 16)
	defer l.Close()
	payload := make([]byte, 64<<10)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < b.N; i++ {
			if _, err := l.Recv(); err != nil {
				return
			}
		}
	}()
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Send(Frame{Key: "k", Payload: payload}); err != nil {
			b.Fatal(err)
		}
	}
	wg.Wait()
}

func BenchmarkTCPLinkRoundTrip(b *testing.B) {
	client, server := tcpPair(b)
	payload := make([]byte, 64<<10)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.Send(Frame{Key: "k", Payload: payload}); err != nil {
			b.Fatal(err)
		}
		if _, err := server.Recv(); err != nil {
			b.Fatal(err)
		}
	}
}
