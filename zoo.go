package h2onas

import (
	"h2onas/internal/models"
	"h2onas/internal/quality"
)

// Model zoo (Section 7.1): the open-sourced CoAtNet-H and EfficientNet-H
// families with their baselines.
var (
	// CoAtNet returns baseline variant i (0–5).
	CoAtNet = models.CoAtNet
	// CoAtNetH returns the H₂O-NAS-optimized variant i.
	CoAtNetH = models.CoAtNetH
	// EfficientNetX returns baseline variant i (B0–B7).
	EfficientNetX = models.EfficientNetX
	// EfficientNetH returns the H₂O-NAS-optimized variant i.
	EfficientNetH = models.EfficientNetH
)

// Accuracy model (the calibrated substitute for ImageNet/JFT training):
// the pre-training corpus regimes and the top-1 estimate.
const (
	// ImageNet1K is the small-data regime.
	ImageNet1K = quality.ImageNet1K
	// JFT300M is the large-data regime.
	JFT300M = quality.JFT300M
)

// VisionAccuracy returns the calibrated top-1 accuracy for traits on a
// dataset.
var VisionAccuracy = quality.Accuracy
