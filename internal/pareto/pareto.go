// Package pareto provides the Pareto-front tooling the evaluation uses:
// dominance and front extraction over (quality, cost) points and the
// bucketized comparisons of Figure 5b/5c. Convention throughout: quality is maximized, cost
// (step time, latency, memory) is minimized.
package pareto

import (
	"math"
	"sort"
)

// Point is one evaluated model: a quality to maximize and a cost to
// minimize, with an opaque ID for reporting.
type Point struct {
	ID      string
	Quality float64
	Cost    float64
}

// Dominates reports whether a dominates b: at least as good in both
// dimensions and strictly better in one.
func Dominates(a, b Point) bool {
	if a.Quality < b.Quality || a.Cost > b.Cost {
		return false
	}
	return a.Quality > b.Quality || a.Cost < b.Cost
}

// Front returns the non-dominated subset, sorted by ascending cost.
func Front(points []Point) []Point {
	sorted := append([]Point(nil), points...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Cost != sorted[j].Cost {
			return sorted[i].Cost < sorted[j].Cost
		}
		return sorted[i].Quality > sorted[j].Quality
	})
	var front []Point
	bestQ := math.Inf(-1)
	for _, p := range sorted {
		if p.Quality > bestQ {
			front = append(front, p)
			bestQ = p.Quality
		}
	}
	return front
}

// Bucket is one aggregation bucket of Figure 5b/5c.
type Bucket struct {
	Lo, Hi float64 // bucket bounds on the bucketized axis
	Mean   float64 // mean of the other axis within the bucket
	Count  int
}

// BucketizeByQuality clusters points into n equal-width quality buckets and
// averages cost within each (Figure 5b: "bucketized by quality and then
// averaged within a bucket"). Empty buckets are omitted.
func BucketizeByQuality(points []Point, n int) []Bucket {
	return bucketize(points, n, func(p Point) (float64, float64) { return p.Quality, p.Cost })
}

// BucketizeByCost clusters points into n equal-width cost buckets and
// averages quality within each (Figure 5c).
func BucketizeByCost(points []Point, n int) []Bucket {
	return bucketize(points, n, func(p Point) (float64, float64) { return p.Cost, p.Quality })
}

func bucketize(points []Point, n int, axes func(Point) (key, val float64)) []Bucket {
	if len(points) == 0 || n <= 0 {
		return nil
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, p := range points {
		k, _ := axes(p)
		lo = math.Min(lo, k)
		hi = math.Max(hi, k)
	}
	if hi <= lo {
		// All points share the key: one bucket.
		var sum float64
		for _, p := range points {
			_, v := axes(p)
			sum += v
		}
		return []Bucket{{Lo: lo, Hi: hi, Mean: sum / float64(len(points)), Count: len(points)}}
	}
	width := (hi - lo) / float64(n)
	sums := make([]float64, n)
	counts := make([]int, n)
	for _, p := range points {
		k, v := axes(p)
		idx := int((k - lo) / width)
		if idx >= n {
			idx = n - 1
		}
		sums[idx] += v
		counts[idx]++
	}
	var out []Bucket
	for i := 0; i < n; i++ {
		if counts[i] == 0 {
			continue
		}
		out = append(out, Bucket{
			Lo:    lo + float64(i)*width,
			Hi:    lo + float64(i+1)*width,
			Mean:  sums[i] / float64(counts[i]),
			Count: counts[i],
		})
	}
	return out
}
