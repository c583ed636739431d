package hwsim

import (
	"math"

	"h2onas/internal/arch"
)

// Serving-under-load model. The paper's serving objective is "serving
// throughput under P99 target latency over O(n) serving accelerators":
// what matters in production is not the unloaded batch latency but the
// tail under a given query rate, where queueing inflates latency as the
// chip approaches saturation.

// GraphBuilder constructs the model graph at a given per-chip batch size.
// The serving and scaling analyses re-invoke it across batch sizes.
type GraphBuilder func(batch int) *arch.Graph

// tailFactor is the tail inflation factor: an M/D/1-flavoured
// approximation where the p99 waiting time is ~ln(100)× the mean wait.
const tailFactor = 4.6 // ln(100)

// P99AtLoad is the P99 latency (seconds) of a batch of the given size and
// simulated service time (seconds) at a query rate: the chip serves
// batches back to back, queueing delay follows the M/D/1 mean-wait formula
// W = ρ/(2(1−ρ))·S, and the 99th percentile is ≈ ln(100)·W + S plus the
// batch-fill wait. A saturated chip (ρ ≥ 1) returns +Inf. It simulates
// nothing: the rate does not change the service time, so the caller
// prices the batch once.
func P99AtLoad(service float64, batch int, qps float64) float64 {
	rho := qps / (float64(batch) / service)
	if rho >= 1 {
		return math.Inf(1)
	}
	wait := rho / (2 * (1 - rho)) * service
	// A query also waits for its batch to fill: ~half the inter-batch gap.
	batching := service / 2
	return service + tailFactor*wait + batching
}

// serviceTime simulates one inference batch of the model: the time the
// chip takes to serve it, which no query rate changes.
func serviceTime(build GraphBuilder, chip Chip, batch int) float64 {
	return Simulate(build(batch), chip, Options{Mode: Inference}).StepTime
}

// MaxQPSAtBatch bisects the highest query rate a batch of the given size
// and simulated service time (seconds) sustains with its P99 latency
// within the target. Zero means even an unloaded batch (service plus
// batching delay) misses the target. It simulates nothing: the caller
// prices the batch once and every bisection step reuses that time.
func MaxQPSAtBatch(service float64, batch int, targetP99 float64) float64 {
	if service*1.5 > targetP99 {
		return 0
	}
	capacity := float64(batch) / service
	lo, hi := 0.0, capacity*0.999
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if P99AtLoad(service, batch, mid) <= targetP99 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// MaxQPSUnderP99 finds the highest sustainable query rate whose P99
// latency stays within the target, searching over power-of-two batch
// sizes, simulating each once and bisecting the load over its service
// time. It returns the best (QPS, batch) found; a zero QPS means even an
// unloaded batch-1 misses the target.
func MaxQPSUnderP99(build GraphBuilder, chip Chip, targetP99 float64) (bestQPS float64, bestBatch int) {
	for batch := 1; batch <= 1024; batch *= 2 {
		qps := MaxQPSAtBatch(serviceTime(build, chip, batch), batch, targetP99)
		if qps == 0 {
			break // larger batches are strictly slower
		}
		if qps > bestQPS {
			bestQPS, bestBatch = qps, batch
		}
	}
	return bestQPS, bestBatch
}
