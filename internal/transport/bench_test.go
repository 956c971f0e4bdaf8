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
	addrCh := make(chan string, 1)
	var server *TCPLink
	var srvErr error
	done := make(chan struct{})
	go func() {
		server, srvErr = ListenTCP("127.0.0.1:0", func(a string) { addrCh <- a })
		close(done)
	}()
	client, err := DialTCP(<-addrCh)
	if err != nil {
		b.Fatal(err)
	}
	<-done
	if srvErr != nil {
		b.Fatal(srvErr)
	}
	defer client.Close()
	defer server.Close()
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
