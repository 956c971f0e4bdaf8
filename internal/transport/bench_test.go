package transport

import "testing"

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
