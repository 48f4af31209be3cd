package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"blockspmv/internal/machine"
	"blockspmv/internal/profile"
)

// Calibration is the host description the selection models consume,
// measured once per host and reused by every run on both sides of a
// comparison, so that selection inputs do not drift between runs: the
// library's own triad runs at 32 MiB, inside a large LLC, and reads
// differently from run to run.
type Calibration struct {
	Fingerprint string          `json:"fingerprint"`
	CPU         string          `json:"cpu"`
	Measured    string          `json:"measured"`
	Machine     machine.Machine `json:"machine"`
	// DRAMTriad is the benchmark's own single-thread triad bandwidth with
	// every array at least four times the LLC, in bytes per second; it
	// is the denominator of kernel.bw_frac.
	DRAMTriad      float64         `json:"dram_triad_bytes_per_s"`
	DRAMArrayBytes int64           `json:"dram_triad_array_bytes"`
	Profile        json.RawMessage `json:"profile"`

	source string
	prof   *profile.Table
}

const (
	frozenDir = "perfbench/calib"
	localCal  = ".bench_build/calib.json"
)

// hostFingerprint identifies a host by what the models depend on.
func hostFingerprint() (fp, cpu string) {
	l1, l2, llc := machine.DetectCaches()
	cpu = cpuModel()
	fp = fmt.Sprintf("%s/%d-cpu/l1d-%d/l2-%d/llc-%d/%s", runtime.GOARCH, runtime.NumCPU(), l1, l2, llc, cpu)
	return fp, cpu
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// loadCalibration returns the frozen calibration for this host from
// perfbench/calib, else the one measured earlier in this checkout.
func loadCalibration() (*Calibration, error) {
	fp, _ := hostFingerprint()
	frozen, _ := filepath.Glob(filepath.Join(frozenDir, "*.json"))
	for _, path := range append(frozen, localCal) {
		c, err := readCalibration(path)
		if err != nil || c.Fingerprint != fp {
			continue
		}
		c.source = path
		return c, nil
	}
	return nil, fmt.Errorf("no calibration for host %q: run with --calibrate", fp)
}

func readCalibration(path string) (*Calibration, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c Calibration
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if c.prof, err = profile.Load(bytes.NewReader(c.Profile)); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if c.Machine.BandwidthBytesPerSec <= 0 || c.DRAMTriad <= 0 {
		return nil, fmt.Errorf("%s: bandwidth missing", path)
	}
	return &c, nil
}

// calibrate makes sure a calibration exists for this host, measuring
// and saving one under .bench_build when none does. Measuring takes
// tens of seconds and is not part of any run's set-up time.
func calibrate() error {
	if _, err := loadCalibration(); err == nil {
		return nil
	}
	fp, cpu := hostFingerprint()
	fmt.Fprintf(os.Stderr, "perfbench: calibrating host %s\n", fp)
	m := machine.Detect()
	prof := profile.Collect[float64](m, profile.Options{})
	var buf bytes.Buffer
	if err := prof.Save(&buf); err != nil {
		return err
	}
	runtime.GC()
	arr := 4 * m.LLCBytes
	c := Calibration{
		Fingerprint: fp, CPU: cpu, Measured: time.Now().UTC().Format(time.RFC3339),
		Machine: m, DRAMTriad: dramTriad(arr, 3), DRAMArrayBytes: arr, Profile: buf.Bytes(),
	}
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(localCal), 0o755); err != nil {
		return err
	}
	return os.WriteFile(localCal, append(data, '\n'), 0o644)
}

// dramTriad measures single-thread STREAM-triad bandwidth a = b + s*c
// with each array arrayBytes long, counting three streamed arrays, and
// returns the best of reps passes in bytes per second.
func dramTriad(arrayBytes int64, reps int) float64 {
	n := int(arrayBytes / 8)
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		a[i], b[i], c[i] = 0, 1, 2
	}
	best := 0.0
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		for i := range a {
			a[i] = b[i] + 3*c[i]
		}
		if bw := float64(3*8*n) / seconds(t0); bw > best {
			best = bw
		}
	}
	if a[n-1] != 7 {
		panic("perfbench: triad produced a wrong value")
	}
	return best
}
