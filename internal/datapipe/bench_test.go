package datapipe

import "testing"

// Sinks keep the benchmarks' results alive.
var (
	batchSink    *Batch
	seqBatchSink *SeqBatch
)

// BenchmarkNextBatch measures synthesizing one 64-example batch of
// small-DLRM-shaped CTR traffic (the dlrm_search batch).
func BenchmarkNextBatch(b *testing.B) {
	s := NewStream(smallCTRConfig(), 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		batchSink = s.NextBatch(64)
	}
}

// BenchmarkSeqNextBatch measures synthesizing one 16-sequence batch of
// the default sequence traffic (the vit_search batch).
func BenchmarkSeqNextBatch(b *testing.B) {
	s := NewSeqStream(DefaultSeqConfig(), 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		seqBatchSink = s.NextBatch(16)
	}
}
