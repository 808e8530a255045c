//go:build !linux

package main

import (
	"os/exec"
	"time"
)

// setDeathSignal is Linux-only; elsewhere main's exit sweep is the only guard.
func setDeathSignal(*exec.Cmd) {}

// threadCPU is unavailable; the pace sampler then reports nothing.
func threadCPU() time.Duration { return 0 }
