package jobs

import (
	"bytes"
	"testing"
)

// FuzzSpecJSON drives the POST /jobs body through the handler's own path
// — decodeSpec, Normalize, Validate — with arbitrary bytes: nothing
// panics, Normalize is idempotent (the journaled record shows the values
// the job ran with, so normalizing it again on restart must change
// nothing), and a spec that passes admission also builds, so a job never
// fails at run time for a reason Submit could have refused. Building is
// checked at tiny sizes only, to keep the fuzzer fast. Seeds are the specs
// of CI's jobs-chaos leg plus one of each rejection.
func FuzzSpecJSON(f *testing.F) {
	for _, seed := range []string{
		`{"steps":240,"shards":2,"batch":16,"warmup":20,"seed":11}`,
		`{"steps":200,"shards":2,"batch":16,"warmup":20,"seed":12}`,
		`{"steps":160,"shards":2,"batch":16,"warmup":20,"seed":13}`,
		``,
		`{}`,
		`{"space":"dlrm-small","strategy":"halving","reward":"absolute","chip":"v100","latency_target":0.8,"steps":4,"shards":2,"batch":4}`,
		`{"latency_target":5e-324,"steps":2}`,
		`{"latency_target":1e-6,"steps":2,"chip":"tpuv4i"}`,
		`{"strategy":"halving","steps":4,"shards":4}`,
		`{"latency_target":-1}`,
		`{"steps":-3}`,
		`{"strategy":"annealing"}`,
		`{"unknown_field":1}`,
		`{"steps":1e3}`,
		`[1,2,3]`,
		`{"steps":2} trailing`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeSpec(bytes.NewReader(body))
		if err != nil {
			return
		}
		norm := spec.Normalize()
		if again := norm.Normalize(); again != norm {
			t.Fatalf("Normalize is not idempotent:\n once %+v\ntwice %+v", norm, again)
		}
		if norm.Validate() != nil {
			return
		}
		if norm.Steps > 64 {
			return
		}
		if _, _, err := norm.build(); err != nil {
			t.Fatalf("spec %+v passes Validate but does not build: %v", norm, err)
		}
	})
}
