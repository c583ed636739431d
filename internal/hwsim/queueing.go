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

// LoadPoint is the serving behaviour at one offered load.
type LoadPoint struct {
	// QPS is the offered queries/second.
	QPS float64
	// Utilization is offered load over capacity (ρ).
	Utilization float64
	// MeanLatency and P99Latency include queueing delay.
	MeanLatency, P99Latency float64
}

// qPow is the tail inflation exponent: an M/D/1-flavoured approximation
// where the p99 waiting time is ~ln(100)× the mean wait.
const tailFactor = 4.6 // ln(100)

// ServeUnderLoad evaluates one batch configuration at a given query rate:
// the chip serves batches back to back (service time = batch latency), and
// queueing delay follows the M/D/1 mean-wait formula
// W = ρ/(2(1−ρ))·S, with the 99th percentile ≈ ln(100)·W + S.
// Saturated systems (ρ ≥ 1) return +Inf latencies.
func ServeUnderLoad(build GraphBuilder, chip Chip, batch int, qps float64) LoadPoint {
	g := build(batch)
	r := Simulate(g, chip, Options{Mode: Inference})
	service := r.StepTime
	capacity := float64(batch) / service
	rho := qps / capacity
	p := LoadPoint{QPS: qps, Utilization: rho}
	if rho >= 1 {
		p.MeanLatency = math.Inf(1)
		p.P99Latency = math.Inf(1)
		return p
	}
	wait := rho / (2 * (1 - rho)) * service
	// A query also waits for its batch to fill: ~half the inter-batch gap.
	batching := service / 2
	p.MeanLatency = service + wait + batching
	p.P99Latency = service + tailFactor*wait + batching
	return p
}

// MaxQPSAtBatch bisects the highest query rate one batch size sustains
// with its P99 latency within the target. Zero means even an unloaded
// batch (service plus batching delay) misses the target.
func MaxQPSAtBatch(build GraphBuilder, chip Chip, batch int, targetP99 float64) float64 {
	r := Simulate(build(batch), chip, Options{Mode: Inference})
	if r.StepTime*1.5 > targetP99 {
		return 0
	}
	capacity := float64(batch) / r.StepTime
	lo, hi := 0.0, capacity*0.999
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if ServeUnderLoad(build, chip, batch, mid).P99Latency <= targetP99 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// MaxQPSUnderP99 finds the highest sustainable query rate whose P99
// latency stays within the target, searching over power-of-two batch
// sizes and bisecting the load for each. It returns the best (QPS, batch)
// found; a zero QPS means even an unloaded batch-1 misses the target.
func MaxQPSUnderP99(build GraphBuilder, chip Chip, targetP99 float64) (bestQPS float64, bestBatch int) {
	for batch := 1; batch <= 1024; batch *= 2 {
		qps := MaxQPSAtBatch(build, chip, batch, targetP99)
		if qps == 0 {
			break // larger batches are strictly slower
		}
		if qps > bestQPS {
			bestQPS, bestBatch = qps, batch
		}
	}
	return bestQPS, bestBatch
}
