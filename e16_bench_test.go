package tendax_test

import (
	"testing"

	"tendax/internal/protocol"
)

// BenchmarkE16BinaryCodec isolates the protocol-v3 binary codec
// (EXPERIMENTS.md E16) on a representative edit-batch acknowledgement
// (sequential instance IDs, the common case the RLE ID-list encoding
// targets). The durable typing sessions and the Apply-path allocation
// count run as experiment E16 (BenchmarkExperiments/E16).
func BenchmarkE16BinaryCodec(b *testing.B) {
	ack := &protocol.Message{
		Type: protocol.TypeResponse,
		ID:   42,
		Results: []protocol.EditResult{{
			OpID: 9000,
			IDs:  []uint64{5000, 5001, 5002, 5003, 5004, 5005, 5006, 5007},
		}},
	}
	b.Run("encode-json", func(b *testing.B) {
		b.ReportAllocs()
		var bytes int
		for i := 0; i < b.N; i++ {
			f, err := protocol.EncodeFrame(ack, protocol.Version2)
			if err != nil {
				b.Fatal(err)
			}
			bytes = len(f)
		}
		b.ReportMetric(float64(bytes), "frame-bytes")
	})
	b.Run("encode-binary", func(b *testing.B) {
		b.ReportAllocs()
		var bytes int
		for i := 0; i < b.N; i++ {
			f := protocol.EncodeBinaryFrame(ack)
			bytes = len(f)
		}
		b.ReportMetric(float64(bytes), "frame-bytes")
	})
	b.Run("decode-binary", func(b *testing.B) {
		frame := protocol.EncodeBinaryFrame(ack)
		payload := frame[2:] // strip magic + 1-byte length varint
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := protocol.DecodeBinaryPayload(payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}
