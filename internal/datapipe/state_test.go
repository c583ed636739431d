package datapipe

import (
	"reflect"
	"testing"
)

func testCfg() CTRConfig {
	return CTRConfig{NumTables: 3, Vocab: 64, NumDense: 4}
}

func batchesEqual(a, b *Batch) bool {
	return reflect.DeepEqual(a.Dense.Data, b.Dense.Data) &&
		reflect.DeepEqual(a.Sparse, b.Sparse) &&
		reflect.DeepEqual(a.Labels.Data, b.Labels.Data)
}

// TestStreamSkipMatchesNextBatch is the contract checkpoint resume rests
// on: fast-forwarding a fresh stream with Skip lands it in exactly the
// state that actually generating the batches would have: the same count
// of examples served and the same batches from there on.
func TestStreamSkipMatchesNextBatch(t *testing.T) {
	for _, k := range []int64{0, 1, 7, 23} {
		walked := NewStream(testCfg(), 11)
		for i := int64(0); i < k; i++ {
			walked.NextBatch(16)
		}
		skipped := NewStream(testCfg(), 11)
		skipped.Skip(k, 16)
		if w, s := walked.ExamplesServed(), skipped.ExamplesServed(); w != s {
			t.Fatalf("after %d batches: walked served %d, skipped served %d", k, w, s)
		}
		for next := k; next < k+2; next++ {
			if !batchesEqual(walked.NextBatch(16), skipped.NextBatch(16)) {
				t.Fatalf("batch %d differs between walked and skipped streams", next)
			}
		}

		// The sequence stream's Skip has the same contract.
		seqWalked := NewSeqStream(DefaultSeqConfig(), 11)
		for i := int64(0); i < k; i++ {
			seqWalked.NextBatch(16)
		}
		seqSkipped := NewSeqStream(DefaultSeqConfig(), 11)
		seqSkipped.Skip(k, 16)
		if w, s := seqWalked.ExamplesServed(), seqSkipped.ExamplesServed(); w != s {
			t.Fatalf("after %d sequence batches: walked served %d, skipped served %d", k, w, s)
		}
		if w, s := seqWalked.NextBatch(16), seqSkipped.NextBatch(16); !reflect.DeepEqual(w.Tokens, s.Tokens) ||
			!reflect.DeepEqual(w.Labels.Data, s.Labels.Data) {
			t.Fatalf("sequence batch %d differs between walked and skipped streams", k)
		}
	}
}

func TestStreamSkipValidatesArguments(t *testing.T) {
	for _, call := range []func(*Stream){
		func(s *Stream) { s.Skip(-1, 8) },
		func(s *Stream) { s.Skip(1, 0) },
		func(s *Stream) { s.Skip(1, -8) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid Skip arguments did not panic")
				}
			}()
			call(NewStream(testCfg(), 1))
		}()
	}
}
