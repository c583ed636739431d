package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"h2onas/internal/hwsim"
	"h2onas/internal/perfmodel"
	"h2onas/internal/space"
)

// samplesDigest hashes the bits of every sample's features and labels.
func samplesDigest(samples []perfmodel.Sample) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, s := range samples {
		for _, f := range s.Features {
			put(f)
		}
		put(s.TrainTime)
		put(s.ServeTime)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

// TestLabeledSamplesDigestUnmoved pins the bits of 64 simulated and 64
// measured samples (seed 7) of the small and default DLRM spaces to the
// digests captured when every sample still built a fresh arch and graph.
func TestLabeledSamplesDigestUnmoved(t *testing.T) {
	for _, c := range []struct {
		cfg           space.DLRMConfig
		simulated, hw string
	}{
		{space.SmallDLRMConfig(), "7ab7c6842cbfe784f2438a4308c916eb", "e7d5250541e6f8368b91b2bfd0cb417d"},
		{space.DefaultDLRMConfig(), "41f747addf76b6140a953243d49abaf4", "0f62fb1be840f91170e3cead8574f422"},
	} {
		ds := space.NewDLRMSpace(c.cfg)
		if got := samplesDigest(SimulatorSamples(ds, hwsim.TPUv4(), 64, 7)); got != c.simulated {
			t.Errorf("%s: SimulatorSamples digest %s, want %s", c.cfg.Name, got, c.simulated)
		}
		if got := samplesDigest(MeasuredSamples(ds, hwsim.TPUv4(), 64, 7)); got != c.hw {
			t.Errorf("%s: MeasuredSamples digest %s, want %s", c.cfg.Name, got, c.hw)
		}
	}
}
