package supernet

import (
	"testing"

	"h2onas/internal/space"
	"h2onas/internal/tensor"
)

// sinkNet keeps the benchmarked builds alive past the loop.
var sinkNet *Supernet

// BenchmarkSupernetNew times what a search builds before its first step
// on the jobs' space: the master super-network and its shard replicas.
// serve is a serve-shaped job (2 shards), dlrm the dlrm_search shape (8).
func BenchmarkSupernetNew(b *testing.B) {
	ds := space.NewDLRMSpace(space.SmallDLRMConfig())
	for _, bc := range []struct {
		name     string
		replicas int
	}{{"serve", 2}, {"dlrm", 8}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rng := tensor.NewRNG(uint64(i))
				sn := New(ds, rng)
				for r := 0; r < bc.replicas; r++ {
					sinkNet = sn.Replicate(rng.Split())
				}
				sinkNet = sn
			}
		})
	}
}
