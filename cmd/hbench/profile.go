package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// startProfiles starts a host CPU profile into cpuPath (when set) and
// returns a function that stops it and writes a heap profile, whose
// alloc_space samples cover the whole run, into memPath (when set).
func startProfiles(cpuPath, memPath string) (func() error, error) {
	var cpu *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		cpu = f
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return fmt.Errorf("-cpuprofile: %w", err)
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
		runtime.GC() // bring the in-use figures up to date
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("-memprofile: %w", err)
		}
		return f.Close()
	}, nil
}
