package main

import (
	"os"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"
)

// The host's speed changes under the benchmark: on a shared VM the same
// work takes 30% more or less CPU time from one minute to the next, and
// from one second to the next (neighbours' cache and memory-bandwidth
// use, clock speed). So an untraced repetition samples the host's speed
// as it goes. Between the workload's steps it runs a fixed piece of
// calibration work, keeps that work's CPU time out of the phase being
// measured, and scales the phase's CPU time by how fast the calibration
// ran (refCPU).

// calibTable and calibBuf hold the calibration work's data. They are
// allocated once, so the work adds no garbage and no bytes to alloc_mb.
var (
	calibTable = make([]uint64, 1<<20) // 8 MB, larger than the caches
	calibBuf   = make([]uint64, 4096)
	calibX     = uint64(88172645463325252)
)

// calibWork runs units of the calibration work: random read-modify-
// writes over calibTable (memory latency, as in page and index lookups)
// and a sort of calibBuf (branchy compute). A unit takes about refUnit
// of CPU time on the reference host.
func calibWork(units int) {
	x := calibX
	for u := 0; u < units; u++ {
		for i := 0; i < 20000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			calibTable[x&uint64(len(calibTable)-1)] += x
		}
		for i := range calibBuf {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			calibBuf[i] = x
		}
		slices.Sort(calibBuf)
	}
	calibX = x
}

// refUnit is the CPU time of one unit of calibration work on the
// reference host, a 2-vCPU cloud VM in a quiet phase.
const refUnit = time.Millisecond

// sampleHost runs units of calibration work between two steps of an
// untraced repetition and adds its CPU time to the repetition's speed
// sample. The work's CPU and wall time are kept out of the current
// phase. Traced repetitions skip it, so that the profile holds only the
// workload.
func (c *repCtx) sampleHost(units int) {
	if c.traced {
		return
	}
	t, cpu := time.Now(), processCPU()
	calibWork(units)
	d, wall := processCPU()-cpu, time.Since(t)
	c.calibCPU += d
	c.calibUnits += units
	c.cpu0 += d
	c.excludedWall += wall
}

// hostSpeed is the calibration's CPU time per unit in this repetition
// over refUnit: 1.2 means the host ran 20% slower than the reference.
func (c *repCtx) hostSpeed() float64 {
	if c.calibUnits == 0 {
		return 1
	}
	return float64(c.calibCPU) / float64(c.calibUnits) / float64(refUnit)
}

// refCPU scales a CPU time measured in this repetition to the reference
// host. A host that runs the calibration 20% slower runs the program
// about 20% slower too, so the scaled time follows the program's work
// rather than the host's speed.
func (c *repCtx) refCPU(d time.Duration) float64 {
	return d.Seconds() / c.hostSpeed()
}

// resetPeakRSS returns freed memory to the OS and restarts the kernel's
// resident-set high-water mark, so that the next peakRSSMB reads the
// peak of what follows only. Where /proc has no clear_refs the mark is
// not reset, and peakRSSMB reads the peak so far.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the resident-set high-water mark (VmHWM) since the last
// resetPeakRSS, or the process's peak so far where /proc has no VmHWM.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			f := strings.Fields(line)
			if len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return maxRSSMB()
}
