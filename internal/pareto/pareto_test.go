package pareto

import (
	"math"
	"testing"
	"testing/quick"

	"h2onas/internal/tensor"
)

func TestDominates(t *testing.T) {
	a := Point{Quality: 0.9, Cost: 1.0}
	b := Point{Quality: 0.8, Cost: 1.2}
	if !Dominates(a, b) {
		t.Fatal("better quality and cost must dominate")
	}
	if Dominates(b, a) {
		t.Fatal("dominated point cannot dominate back")
	}
	if Dominates(a, a) {
		t.Fatal("a point never dominates itself")
	}
	c := Point{Quality: 0.95, Cost: 1.5}
	if Dominates(a, c) || Dominates(c, a) {
		t.Fatal("trade-off points must be mutually non-dominated")
	}
}

func TestFrontExtraction(t *testing.T) {
	points := []Point{
		{ID: "a", Quality: 0.7, Cost: 1.0},
		{ID: "b", Quality: 0.8, Cost: 2.0},
		{ID: "c", Quality: 0.75, Cost: 3.0}, // dominated by b
		{ID: "d", Quality: 0.9, Cost: 4.0},
		{ID: "e", Quality: 0.6, Cost: 1.5}, // dominated by a
	}
	front := Front(points)
	if len(front) != 3 {
		t.Fatalf("front size %d, want 3: %+v", len(front), front)
	}
	want := []string{"a", "b", "d"}
	for i, p := range front {
		if p.ID != want[i] {
			t.Fatalf("front[%d] = %s, want %s", i, p.ID, want[i])
		}
	}
}

func TestFrontPropertyNoMemberDominated(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		var points []Point
		for i := 0; i < 40; i++ {
			points = append(points, Point{Quality: rng.Float64(), Cost: rng.Float64()})
		}
		front := Front(points)
		for _, fp := range front {
			for _, p := range points {
				if Dominates(p, fp) {
					return false
				}
			}
		}
		// Every non-front point must be dominated by some front point or
		// duplicate a front point.
		onFront := func(p Point) bool {
			for _, fp := range front {
				if fp == p {
					return true
				}
			}
			return false
		}
		for _, p := range points {
			if onFront(p) {
				continue
			}
			dominated := false
			for _, fp := range front {
				if Dominates(fp, p) || fp == p {
					dominated = true
					break
				}
			}
			if !dominated {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBucketizeByQuality(t *testing.T) {
	points := []Point{
		{Quality: 0.1, Cost: 10},
		{Quality: 0.15, Cost: 20},
		{Quality: 0.9, Cost: 100},
	}
	buckets := BucketizeByQuality(points, 2)
	if len(buckets) != 2 {
		t.Fatalf("buckets = %d, want 2", len(buckets))
	}
	if math.Abs(buckets[0].Mean-15) > 1e-9 || buckets[0].Count != 2 {
		t.Fatalf("low bucket = %+v", buckets[0])
	}
	if math.Abs(buckets[1].Mean-100) > 1e-9 || buckets[1].Count != 1 {
		t.Fatalf("high bucket = %+v", buckets[1])
	}
}

func TestBucketizeDegenerate(t *testing.T) {
	if BucketizeByCost(nil, 4) != nil {
		t.Fatal("empty input must give nil")
	}
	same := []Point{{Quality: 1, Cost: 5}, {Quality: 3, Cost: 5}}
	buckets := BucketizeByCost(same, 4)
	if len(buckets) != 1 || buckets[0].Count != 2 || buckets[0].Mean != 2 {
		t.Fatalf("constant-key bucketize = %+v", buckets)
	}
}

func TestBucketCountsSumToPoints(t *testing.T) {
	rng := tensor.NewRNG(3)
	var points []Point
	for i := 0; i < 100; i++ {
		points = append(points, Point{Quality: rng.Float64(), Cost: rng.Float64() * 10})
	}
	total := 0
	for _, b := range BucketizeByQuality(points, 7) {
		total += b.Count
	}
	if total != 100 {
		t.Fatalf("bucket counts sum to %d, want 100", total)
	}
}
