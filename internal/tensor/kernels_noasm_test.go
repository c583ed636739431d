//go:build !amd64 || race

package tensor

func wantKernelBackend() string { return "scalar" }
