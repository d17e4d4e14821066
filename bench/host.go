package main

import (
	"bufio"
	"crypto/aes"
	"crypto/sha256"
	"os"
	"runtime"
	"strings"
	"time"
)

// epoch anchors every wall-clock reading of the harness; now is the only
// place the harness reads the wall clock.
//
//shieldlint:wallclock the benchmark's job is to time the Go implementation on the wall clock
var epoch = time.Now()

// now reports nanoseconds of wall time since the process started.
func now() int64 {
	//shieldlint:wallclock single wall-clock helper of the harness; virtual figures never pass through it
	return int64(time.Since(epoch))
}

// hostInfo is the fingerprint printed with every report, so numbers from
// different hosts are never compared as if they were paired runs.
type hostInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPU        string  `json:"cpu_model"`
	TimerNs    float64 `json:"timer_ns_per_read"`
	CalibP10Us float64 `json:"calibration_us_p10"`
	CalibP50Us float64 `json:"calibration_us_p50"`
	CalibP90Us float64 `json:"calibration_us_p90"`
	// Noisy is set when the calibration loop's p90 exceeds 1.5 x its p10:
	// something else was using the CPU while the harness measured.
	Noisy bool `json:"noisy"`
}

// cpuModel reads the CPU model string; "unknown" where the host hides it.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// calibrationSink keeps the calibration loop's result alive.
var calibrationSink byte

// calibrate times a fixed AES + SHA-256 loop. The loop does not touch the
// system under test, so its spread is the host's, not the core's.
func calibrate(rounds int) []float64 {
	key := make([]byte, 16)
	block, err := aes.NewCipher(key)
	if err != nil {
		panic(err) // a 16-byte key is always valid
	}
	buf := make([]byte, 4096)
	out := make([]float64, rounds)
	for r := range out {
		t0 := now()
		for i := 0; i < 16; i++ {
			for off := 0; off < len(buf); off += aes.BlockSize {
				block.Encrypt(buf[off:], buf[off:])
			}
			sum := sha256.Sum256(buf)
			copy(buf, sum[:])
		}
		out[r] = float64(now()-t0) / 1e3
		calibrationSink ^= buf[0]
	}
	return out
}

// timerCost reports the cost of one now() call in nanoseconds.
func timerCost() float64 {
	const n = 200_000
	t0 := now()
	var last int64
	for i := 0; i < n; i++ {
		last = now()
	}
	return float64(last-t0) / n
}

// fingerprint measures the host once per invocation.
func fingerprint() hostInfo {
	cal := calibrate(200)
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		TimerNs:    timerCost(),
		CalibP10Us: percentile(cal, 0.10),
		CalibP50Us: percentile(cal, 0.50),
		CalibP90Us: percentile(cal, 0.90),
	}
	h.Noisy = h.CalibP90Us > 1.5*h.CalibP10Us
	return h
}
