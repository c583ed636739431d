package datapipe

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
)

// digest hashes the bits of what a batch carries, in order.
type digest struct {
	h   hash.Hash
	buf [8]byte
}

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digest) sum(n int) string { return fmt.Sprintf("%x", d.h.Sum(nil)[:n]) }

// ctrDigest hashes batches of n examples drawn one after the other from a
// fresh stream: every dense value, every id of every bag, every label, and
// the ground truth behind each label — the dense signal of every example
// and the effect of every id it drew — whose bits a label alone rarely
// shows.
func ctrDigest(cfg CTRConfig, seed uint64, batches, n int) string {
	s := NewStream(cfg, seed)
	d := newDigest()
	for k := range batches {
		b := s.NextBatch(n)
		for _, v := range b.Dense.Data {
			d.u64(math.Float64bits(v))
		}
		for _, table := range b.Sparse {
			for _, bag := range table {
				d.u64(uint64(len(bag)))
				for _, id := range bag {
					d.u64(uint64(id))
				}
			}
		}
		for _, y := range b.Labels.Data {
			d.u64(math.Float64bits(y))
		}
		for i := range n {
			d.u64(math.Float64bits(s.denseSignal(b.Dense.Row(i))))
			for t, table := range b.Sparse {
				for _, id := range table[i] {
					d.u64(math.Float64bits(s.effectAt(t, id, int64(k*n+i))))
				}
			}
		}
	}
	return d.sum(16)
}

// seqDigest is ctrDigest for the sequence generator: tokens, labels, then
// each example's token and pair effects.
func seqDigest(cfg SeqConfig, seed uint64, batches, n int) string {
	s := NewSeqStream(cfg, seed)
	d := newDigest()
	for range batches {
		b := s.NextBatch(n)
		for _, toks := range b.Tokens {
			d.u64(uint64(len(toks)))
			for _, tok := range toks {
				d.u64(uint64(tok))
			}
		}
		for _, y := range b.Labels.Data {
			d.u64(math.Float64bits(y))
		}
		for _, toks := range b.Tokens {
			for pos, tok := range toks {
				d.u64(math.Float64bits(s.unaryEffect(tok, pos)))
			}
			d.u64(math.Float64bits(s.pairEffect(toks[0], toks[len(toks)-1])))
		}
	}
	return d.sum(16)
}

// generatorDigests digests each golden stream. Twelve batches of 64 cross
// the 700-example drift period, so the drifting streams cover an epoch
// boundary and both interpolation endpoints.
func generatorDigests() map[string]string {
	got := map[string]string{}
	for _, bag := range []int{1, 3} {
		for _, drift := range []int64{0, 700} {
			cfg := smallCTRConfig()
			cfg.BagSize, cfg.DriftPeriod = bag, drift
			got[fmt.Sprintf("ctr/bag%d/drift%d", bag, drift)] = ctrDigest(cfg, 17, 12, 64)
		}
	}
	got["seq/default"] = seqDigest(DefaultSeqConfig(), 17, 12, 16)
	return got
}

// TestGeneratorDigestsUnmoved pins the synthetic traffic bit for bit to
// the digests in testdata/generator_digests.txt ("label digest" per line;
// never regenerate it to make a change pass): a dense value, an id or a
// label that moves by one bit fails here.
func TestGeneratorDigestsUnmoved(t *testing.T) {
	raw, err := os.ReadFile("testdata/generator_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		label, digest, _ := strings.Cut(line, " ")
		want[label] = digest
	}
	got := generatorDigests()
	if len(got) != len(want) {
		t.Errorf("%d streams digested, golden file has %d", len(got), len(want))
	}
	for label, d := range got {
		if want[label] != d {
			t.Errorf("%s %s (golden %q)", label, d, want[label])
		}
	}
}

// TestBatchCarvedSlicesAreCapped requires every slice carved out of a
// batch's shared backing arrays to end at its own length, so an append to
// one table's rows, one bag or one sequence reallocates instead of
// overwriting its neighbour.
func TestBatchCarvedSlicesAreCapped(t *testing.T) {
	cfg := smallCTRConfig()
	cfg.BagSize = 2
	b := NewStream(cfg, 3).NextBatch(8)
	if cap(b.Dense.Data) != len(b.Dense.Data) {
		t.Errorf("dense values: cap %d, len %d", cap(b.Dense.Data), len(b.Dense.Data))
	}
	for tbl, rows := range b.Sparse {
		if cap(rows) != 8 {
			t.Errorf("table %d rows: cap %d, want 8", tbl, cap(rows))
		}
		for i, bag := range rows {
			if cap(bag) != 2 {
				t.Errorf("table %d bag %d: cap %d, want 2", tbl, i, cap(bag))
			}
		}
	}
	for i, toks := range NewSeqStream(DefaultSeqConfig(), 3).NextBatch(4).Tokens {
		if cap(toks) != len(toks) {
			t.Errorf("sequence %d: cap %d, len %d", i, cap(toks), len(toks))
		}
	}
}

// TestConcurrentNextBatchMatchesSerial draws batches from one stream on
// several goroutines at once — they fill the per-(table, id) effect memo
// concurrently — and requires every batch to equal the batch a serial
// stream of the same seed produced with the same generator split. Run it
// under -race.
func TestConcurrentNextBatchMatchesSerial(t *testing.T) {
	const workers, perWorker, n = 4, 6, 32
	cfg := smallCTRConfig()
	cfg.BagSize = 3
	serial := NewStream(cfg, 23)
	want := map[uint64]string{} // first dense value's bits → batch digest
	for range workers * perWorker {
		b := serial.NextBatch(n)
		want[math.Float64bits(b.Dense.Data[0])] = batchKey(b)
	}

	s := NewStream(cfg, 23)
	var wg sync.WaitGroup
	errs := make(chan string, workers*perWorker)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range perWorker {
				b := s.NextBatch(n)
				// Under concurrency the draw order decides which split (and
				// start index) a call gets; without drift the batch is a
				// function of its split alone, keyed here by its first value.
				if w, ok := want[math.Float64bits(b.Dense.Data[0])]; !ok || w != batchKey(b) {
					errs <- fmt.Sprintf("concurrent batch %s matches no serial batch", batchKey(b))
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if got := s.ExamplesServed(); got != workers*perWorker*n {
		t.Fatalf("ExamplesServed = %d, want %d", got, workers*perWorker*n)
	}
}

// batchKey is a compact digest of one batch's ids and labels.
func batchKey(b *Batch) string {
	d := newDigest()
	for _, table := range b.Sparse {
		for _, bag := range table {
			for _, id := range bag {
				d.u64(uint64(id))
			}
		}
	}
	for _, y := range b.Labels.Data {
		d.u64(math.Float64bits(y))
	}
	return d.sum(8)
}
