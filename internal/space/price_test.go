package space

import (
	"reflect"
	"sync"
	"testing"

	"h2onas/internal/arch"
	"h2onas/internal/hwsim"
	"h2onas/internal/tensor"
)

// priceOpts are the options the analytic search prices candidates with.
var priceOpts = hwsim.Options{Mode: hwsim.Training, Chips: 128}

// candidates returns n random assignments of s, drawn from one stream.
func candidates(s *Space, seed uint64, n int) []Assignment {
	rng := tensor.NewRNG(seed)
	out := make([]Assignment, n)
	for k := range out {
		a := make(Assignment, len(s.Decisions))
		for i, d := range s.Decisions {
			a[i] = rng.Intn(d.Arity())
		}
		out[k] = a
	}
	return out
}

// TestPricingAllocs bounds the heap allocations of decoding and expanding
// one candidate of every non-DLRM space: the decoded arch's slices, the
// graph and its one op slice (5 on the CNN and hybrid spaces, 3 on the
// transformer ones). A per-op &Op{}, a second op store or a per-call
// name concatenation puts it over. Decoding and expanding into a warm
// arch and graph (DecodeInto, GraphInto) allocates nothing.
func TestPricingAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's own allocations swamp the count")
	}
	const budget = 5
	for _, ps := range pricedSpaces() {
		as := candidates(ps.space, 5, 16)
		k := 0
		allocs := testing.AllocsPerRun(64, func() {
			ps.graph(as[k%len(as)])
			k++
		})
		t.Logf("%s: %.1f allocations per candidate", ps.label, allocs)
		if allocs > budget {
			t.Errorf("%s: Graph(Decode(a)) makes %.1f allocations per candidate, budget %d", ps.label, allocs, budget)
		}
		warm := ps.warm()
		for _, a := range as {
			warm(a) // storage sized to the largest candidate
		}
		if allocs := testing.AllocsPerRun(64, func() {
			warm(as[k%len(as)])
			k++
		}); allocs != 0 {
			t.Errorf("%s: GraphInto(DecodeInto(a)) into a warm arch and graph makes %.1f allocations per candidate, want 0", ps.label, allocs)
		}
	}
}

// TestGraphStorageSizedToCandidate requires Graph to size its op list to
// the ops it pushes: a short count grows the storage a second time, a
// long one wastes it.
func TestGraphStorageSizedToCandidate(t *testing.T) {
	for _, ps := range pricedSpaces() {
		for k, a := range append(candidates(ps.space, 9, 64), ps.baseline) {
			if g := ps.graph(a); cap(g.Ops) != len(g.Ops) {
				t.Fatalf("%s candidate %d: %d ops in storage for %d", ps.label, k, len(g.Ops), cap(g.Ops))
			}
		}
	}
}

// TestConcurrentPricingMatchesSerial prices candidates of every non-DLRM
// space from two goroutines at once and requires each result to equal
// the serial one: Decode and Graph are safe for concurrent use.
func TestConcurrentPricingMatchesSerial(t *testing.T) {
	chip := hwsim.TPUv4()
	for _, ps := range pricedSpaces() {
		as := candidates(ps.space, 11, 48)
		serial := make([]hwsim.Result, len(as))
		digests := make([]string, len(as))
		for k, a := range as {
			g := ps.graph(a)
			serial[k], digests[k] = hwsim.Simulate(g, chip, priceOpts), wideGraphDigest(g)
		}
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := range as {
					k := (i + w*len(as)/2) % len(as) // the two walk different halves first
					g := ps.graph(as[k])
					if r := hwsim.Simulate(g, chip, priceOpts); !reflect.DeepEqual(r, serial[k]) {
						t.Errorf("%s candidate %d: concurrent result %+v, serial %+v", ps.label, k, r, serial[k])
					}
					if d := wideGraphDigest(g); d != digests[k] {
						t.Errorf("%s candidate %d: concurrent graph %s, serial %s", ps.label, k, d, digests[k])
					}
				}
			}(w)
		}
		wg.Wait()
	}
}

// benchPrice times pricing one candidate end to end: decode, graph
// expansion and hwsim.Simulate, as the analytic search does.
func benchPrice(b *testing.B, label string) {
	var ps pricedSpace
	for _, p := range pricedSpaces() {
		if p.label == label {
			ps = p
		}
	}
	as := candidates(ps.space, 3, 64)
	chip := hwsim.TPUv4()
	var g *arch.Graph
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g = ps.graph(as[i%len(as)])
		hwsim.Simulate(g, chip, priceOpts)
	}
}

func BenchmarkPriceCNN(b *testing.B)         { benchPrice(b, "cnn") }
func BenchmarkPriceHybrid(b *testing.B)      { benchPrice(b, "hybrid") }
func BenchmarkPriceTransformer(b *testing.B) { benchPrice(b, "tfm-small") }
