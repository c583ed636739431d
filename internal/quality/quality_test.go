package quality

import (
	"math"
	"testing"
)

// coatnet5 are the Table 3 baseline traits.
func coatnet5() Traits {
	return Traits{
		Params:         688e6,
		FLOPs:          1012e9,
		ConvDepth:      12,
		BaseConvDepth:  12,
		Resolution:     224,
		BaseResolution: 224,
		Activation:     "relu",
	}
}

func TestTable3LadderDeltas(t *testing.T) {
	base := Accuracy(coatnet5(), JFT300M)

	deeper := coatnet5()
	deeper.ConvDepth = 16
	deeper.Params = 697e6
	accDeeper := Accuracy(deeper, JFT300M)
	if d := accDeeper - base; math.Abs(d-0.6) > 0.15 {
		t.Errorf("DeeperConv delta = %+.2f, want ≈ +0.6 (Table 3)", d)
	}

	shrunk := deeper
	shrunk.Resolution = 160
	accShrunk := Accuracy(shrunk, JFT300M)
	if d := accShrunk - accDeeper; math.Abs(d-(-1.4)) > 0.2 {
		t.Errorf("ResShrink delta = %+.2f, want ≈ −1.4 (Table 3)", d)
	}

	srelu := shrunk
	srelu.Activation = "squared_relu"
	accSrelu := Accuracy(srelu, JFT300M)
	if d := accSrelu - accShrunk; math.Abs(d-0.8) > 0.1 {
		t.Errorf("SquaredReLU delta = %+.2f, want ≈ +0.8 (Table 3)", d)
	}

	// The full ladder must land back at the baseline accuracy — the
	// "neutral quality" H₂O-NAS delivers.
	if math.Abs(accSrelu-base) > 0.25 {
		t.Errorf("CoAtNet-H5 accuracy %v vs CoAtNet-5 %v: must be neutral", accSrelu, base)
	}
}

func TestBaselineAccuracyNearPaper(t *testing.T) {
	// CoAtNet-5 on JFT: 89.7 (Table 3).
	got := Accuracy(coatnet5(), JFT300M)
	if math.Abs(got-89.7) > 0.6 {
		t.Errorf("CoAtNet-5 accuracy = %v, want ≈ 89.7", got)
	}
}

func TestDatasetCeilingsOrdered(t *testing.T) {
	tr := coatnet5()
	sd := Accuracy(tr, ImageNet1K)
	md := Accuracy(tr, ImageNet21K)
	ld := Accuracy(tr, JFT300M)
	if !(sd < md && md < ld) {
		t.Fatalf("dataset ordering violated: SD %v, MD %v, LD %v", sd, md, ld)
	}
}

func TestCapacityMonotone(t *testing.T) {
	small := coatnet5()
	small.Params = 25e6
	big := coatnet5()
	big.Params = 688e6
	for _, ds := range []Dataset{ImageNet1K, ImageNet21K, JFT300M} {
		if Accuracy(small, ds) >= Accuracy(big, ds) {
			t.Errorf("capacity must be monotone on %v", ds)
		}
	}
}

func TestSmallDataSaturatesEarlier(t *testing.T) {
	// The capacity gain from 25M → 688M params must be larger on JFT than
	// on ImageNet1K (big models need big data — Figure 6's structure).
	gain := func(ds Dataset) float64 {
		small := coatnet5()
		small.Params = 25e6
		big := coatnet5()
		return Accuracy(big, ds) - Accuracy(small, ds)
	}
	if gain(JFT300M) <= gain(ImageNet1K)*0.8 {
		t.Errorf("JFT gain (%v) should not collapse below ImageNet1K gain (%v)", gain(JFT300M), gain(ImageNet1K))
	}
}

func TestAccuracyNeverExceedsCeiling(t *testing.T) {
	tr := coatnet5()
	tr.Params = 1e13
	tr.ConvDepth = 100
	tr.Activation = "squared_relu"
	ceil, _ := JFT300M.ceiling()
	if got := Accuracy(tr, JFT300M); got > ceil {
		t.Fatalf("accuracy %v exceeds ceiling %v", got, ceil)
	}
}

func TestResolutionMonotone(t *testing.T) {
	lo := coatnet5()
	lo.Resolution = 160
	hi := coatnet5()
	hi.Resolution = 320
	if Accuracy(lo, JFT300M) >= Accuracy(hi, JFT300M) {
		t.Fatal("higher resolution must not reduce accuracy in the model")
	}
}

func TestActivationOrdering(t *testing.T) {
	if !(activationBonus("relu") < activationBonus("swish") &&
		activationBonus("swish") < activationBonus("gelu") &&
		activationBonus("gelu") < activationBonus("squared_relu")) {
		t.Fatal("activation bonus ordering violated")
	}
}
