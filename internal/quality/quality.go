// Package quality is the calibrated parametric accuracy model that stands
// in for training vision models on ImageNet/JFT (see the substitution
// table in DESIGN.md). The paper's vision experiments consume accuracy
// only as a scalar per architecture; this model preserves the orderings
// and magnitudes those experiments rely on, anchored to the numbers the
// paper reports:
//
//   - Table 3's ablation ladder: CoAtNet-5 89.7 → +DeeperConv 90.3 →
//     +ResShrink 88.9 → +SquaredReLU 89.7 — fixing the depth, resolution
//     and activation coefficients.
//   - Figure 6's dataset-size ceilings (ImageNet1K < ImageNet21K < JFT)
//     and capacity scaling across the CoAtNet family.
//
// The model is monotone in capacity, depth and resolution, and saturates
// toward a dataset-dependent ceiling — the qualitative behaviour real
// scaling curves show.
package quality

import (
	"math"
)

// Dataset identifies the pre-training corpus (Figure 6's SD/MD/LD).
type Dataset int

const (
	// ImageNet1K is the small-data regime (SD).
	ImageNet1K Dataset = iota
	// ImageNet21K is the medium-data regime (MD).
	ImageNet21K
	// JFT300M is the large-data regime (LD).
	JFT300M
)

// String names the dataset.
func (d Dataset) String() string {
	switch d {
	case ImageNet1K:
		return "ImageNet1K"
	case ImageNet21K:
		return "ImageNet21K"
	case JFT300M:
		return "JFT-300M"
	default:
		return "unknown"
	}
}

// ceiling is the asymptotic top-1 accuracy reachable with unbounded
// capacity on each corpus, and capScale the capacity penalty magnitude.
func (d Dataset) ceiling() (ceil, capScale float64) {
	switch d {
	case ImageNet1K:
		// Small data saturates early: the capacity curve is flatter, so
		// more parameters stop helping sooner (Figure 6's SD regime).
		return 86.3, 3.2
	case ImageNet21K:
		return 90.9, 4.0
	default: // JFT300M
		return 92.5, 4.8
	}
}

// Traits are the architecture properties the accuracy model consumes.
type Traits struct {
	// Params is total trainable parameters.
	Params float64
	// FLOPs is per-image inference FLOPs. Accuracy does not read it.
	FLOPs float64
	// ConvDepth and BaseConvDepth are the convolution-section layer count
	// and its family-baseline value (Table 3's DeeperConv knob).
	ConvDepth, BaseConvDepth int
	// Resolution and BaseResolution are the (pre-)training image size and
	// its family-baseline value (Table 3's ResShrink knob).
	Resolution, BaseResolution int
	// Activation is the candidate's activation function: a hybrid's
	// transformer-section one, a CNN's majority block activation.
	Activation string
}

// Calibration constants fit to the Table 3 ladder (see package comment).
const (
	// depthCoeff·ln(16/12) ≈ +0.6.
	depthCoeff = 2.086
	// resCoeff·ln(160/224) ≈ −1.4.
	resCoeff = 4.16
	// paramRef is the capacity-reference parameter count (100M).
	paramRef = 1e8
	// capGamma shapes capacity saturation.
	capGamma = 0.28
)

// activationBonus is the accuracy delta of each activation relative to
// ReLU in the transformer section; squared ReLU's +0.8 is Table 3's
// anchor, the others follow the Primer paper's ordering.
func activationBonus(act string) float64 {
	switch act {
	case "squared_relu":
		return 0.8
	case "gelu":
		return 0.55
	case "swish":
		return 0.45
	default:
		return 0
	}
}

// Accuracy returns the model's top-1 accuracy (percent) when pre-trained
// on the dataset and evaluated on ImageNet.
func Accuracy(tr Traits, ds Dataset) float64 {
	ceil, capScale := ds.ceiling()
	// Capacity term: a saturating power law in the parameter count alone
	// (1M when unset); resolution enters only through its own term below.
	capacity := tr.Params
	if capacity <= 0 {
		capacity = 1e6
	}
	acc := ceil - capScale*math.Pow(paramRef/capacity, capGamma)
	if tr.BaseConvDepth > 0 && tr.ConvDepth > 0 {
		acc += depthCoeff * math.Log(float64(tr.ConvDepth)/float64(tr.BaseConvDepth))
	}
	if tr.BaseResolution > 0 && tr.Resolution > 0 {
		acc += resCoeff * math.Log(float64(tr.Resolution)/float64(tr.BaseResolution))
	}
	acc += activationBonus(tr.Activation)
	if acc > ceil {
		// Saturate smoothly at the ceiling rather than exceeding it.
		acc = ceil
	}
	return acc
}
