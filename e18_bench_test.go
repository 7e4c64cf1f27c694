// E18 micro-benchmarks: the per-process sharding layer. The placement
// decision sits on every request path of a multi-shard server, so
// BenchmarkE18ShardFor pins its cost (pure ID arithmetic — no table, no
// lock). BenchmarkE18StridedIDGen measures document-ID minting on a
// shard's residue class against the dense single-engine generator. The
// cross-shard typing storm (file-backed WALs, durable keystrokes/s, 1 vs 2
// vs 4 shards) runs as experiment E18: `tendax-bench -exp e18` or
// BenchmarkExperiments/E18.
package tendax

import (
	"fmt"
	"testing"

	"tendax/internal/placement"
	"tendax/internal/util"
)

func BenchmarkE18ShardFor(b *testing.B) {
	cl, err := placement.Open(placement.Options{Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	var sink int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += cl.ShardFor(util.ID(i + 1))
	}
	_ = sink
}

func BenchmarkE18StridedIDGen(b *testing.B) {
	for _, stride := range []uint64{1, 4} {
		b.Run(fmt.Sprintf("stride%d", stride), func(b *testing.B) {
			var g util.IDGen
			if stride > 1 {
				g.SetStride(0, stride)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = g.Next()
			}
		})
	}
}
