package checkpoint

import "h2onas/internal/nn"

// Snapshot is the complete state of a unified single-step search at a
// step boundary. Restoring every field onto a freshly built search of the
// same configuration reproduces the uninterrupted run bit-for-bit: the
// search strategy's serialized state (for REINFORCE, the policy logits
// and baseline; for the baseline battery, populations and incumbents),
// what training changed of the shared super-network (its weights and
// Adam moments), the coordinator RNG stream, the data-pipeline position
// (as a consumed-batch count, so a fresh stream can be fast-forwarded
// past exactly the batches the checkpointed run consumed), and the step
// counter.
//
// The Fingerprint ties a snapshot to the run configuration that produced
// it (search space shape, shard count, batch size, warmup, seed,
// strategy): a resume against a different configuration would silently
// diverge, so it is refused instead.
type Snapshot struct {
	// Step is the next step index to execute, counting warmup steps.
	Step int64
	// BatchesConsumed is how many batches the search had drawn from the
	// pipeline when the snapshot was taken.
	BatchesConsumed int64
	// Fingerprint identifies the run configuration (see core's
	// fingerprint derivation). Mismatches refuse to resume.
	Fingerprint string
	// RNG is the coordinator RNG stream state.
	RNG uint64

	// Strategy names the search strategy that wrote the snapshot
	// (wire v2+). Resume refuses a snapshot from a different strategy
	// before attempting to decode StrategyState.
	Strategy string
	// StrategyState is the strategy's opaque serialized state (wire
	// v2+); only the strategy that wrote it can interpret it.
	StrategyState []byte

	// Adam is the weight optimizer's state over the shared super-network
	// parameters in Params() order (nn.Adam.Export): its step count and,
	// per param, nothing (never stepped), the whole param, or its stepped
	// rows — each with the weights and both moments. Wire v1 and v2 files
	// carried every param whole; they decode as nn.Whole states.
	Adam nn.AdamState

	// History is the per-step telemetry accumulated so far, so a resumed
	// run's reward trajectory is the uninterrupted run's.
	History []StepRecord

	// CreatedAtUnix is stamped by Manager.Save (via its Clock).
	CreatedAtUnix int64
}

// StepRecord is one step of search telemetry (mirrors core.StepInfo
// without importing it — checkpoint sits below core).
type StepRecord struct {
	Step       int64
	MeanReward float64
	MeanQ      float64
	Entropy    float64
	Confidence float64
}
