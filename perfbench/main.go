// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload through the simulator's public entry points
// (experiments.RunSweep, core.NewEnv, Protocol.Run, snapshot.Encode/Decode
// and Config.Resume) for a fixed time, checks every operation's simulated
// outputs, and prints the end-to-end metrics — or, with --trace 1, the
// per-layer split — as one JSON object on the last line of standard output.
//
//	go run . --workload st-large --seed 1 --seconds 25 --trace 0
//
// perfbench/run.py builds and runs it from the repository root; NOTES.md
// documents the workloads, the metrics and the correctness oracle.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// A run builds one operation's environments at least minSetups and at most
// maxSetups times before measuring, until setupSeconds have passed; setup_s
// is the median over the builds.
const (
	minSetups    = 5
	maxSetups    = 25
	setupSeconds = 2.0
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 25, "measured time in seconds (at least one operation runs)")
	trace := flag.Int("trace", 0, "0 measures the end-to-end metrics; 1 runs traced and reports the per-layer split")
	writePins := flag.Int("write-pins", 0, "run this many operations at --seed and store their fingerprints in perfbench/pins.json")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *writePins > 0 {
		if err := storePins(w, *seed, *writePins); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	measure := time.Duration(*seconds * float64(time.Second))
	var res result
	switch *trace {
	case 0:
		res = runUntraced(w, *seed, measure)
	case 1:
		res = runTraced(w, *seed, measure)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: --trace %d (want 0 or 1)\n", *trace)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// opSeed derives operation i's simulation seed from the run seed
// (splitmix64), so every operation of a run deploys a different world and
// the same run seed always yields the same worlds.
func opSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}

// runUntraced measures the end-to-end metrics: repeated environment builds,
// then operations until the measured time is spent, with tracing off and
// RunStats nil.
func runUntraced(w *workload, seed int64, measure time.Duration) result {
	setups := runSetups(w, seed)
	var walls, rss []float64
	var deviceSlots, wallSum float64
	attempted, failed := 0, 0
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < measure; i++ {
		attempted++
		resetPeakRSS()
		out, err := w.run(opSeed(seed, i), nil)
		peak := peakRSSMB()
		if err == nil {
			err = checkPin(w.name, seed, i, out.fingerprint)
		}
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s op %d: %v\n", w.name, i, err)
			continue
		}
		walls = append(walls, out.wall)
		rss = append(rss, peak)
		wallSum += out.wall
		deviceSlots += out.deviceSlots
	}
	if len(walls) == 0 {
		return result{Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	}

	fmt.Printf("workload %s  seed %d  ops %d\n", w.name, seed, attempted)
	printTiming("wall_s", "s", walls)
	printTiming("setup_s", "s", setups)
	fmt.Printf("  %-20s %.6g device-slots/s (%.0f device-slots in %.3f s)\n", "device_slots_per_s", deviceSlots/wallSum, deviceSlots, wallSum)
	printTiming("peak_rss_mb", "MB", rss)
	fmt.Printf("  %-20s %.3g (%d failed of %d attempted)\n", "error_rate", float64(failed)/float64(attempted), failed, attempted)

	return result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"wall_s":             {median(walls), "s"},
			"setup_s":            {median(setups), "s"},
			"device_slots_per_s": {deviceSlots / wallSum, "1/s"},
			"peak_rss_mb":        {median(rss), "MB"},
		},
	}
}

// runSetups builds one operation's environments repeatedly, each time for
// another operation's seed, and returns the seconds each build took.
func runSetups(w *workload, seed int64) []float64 {
	var setups []float64
	total := 0.0
	for i := 0; i < maxSetups && (i < minSetups || total < setupSeconds); i++ {
		s, err := w.setup(opSeed(seed, i))
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s setup: %v\n", w.name, err)
			os.Exit(1)
		}
		setups = append(setups, s)
		total += s
	}
	return setups
}

// runTraced measures the per-layer split: pairs of one untraced and one
// traced operation on the same inputs until the measured time is spent. The
// layer metrics are averaged over the traced operations; trace.overhead is
// traced over untraced wall time.
func runTraced(w *workload, seed int64, measure time.Duration) result {
	runSetups(w, seed) // warm-up, as before the untraced measurement
	tr := newTracer()
	sum := map[string]float64{}
	var untracedWall, tracedWall float64
	attempted, failed, traced := 0, 0, 0
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < measure; i++ {
		attempted += 2
		plain, err := w.run(opSeed(seed, i), nil)
		if err != nil {
			failed += 2
			fmt.Fprintf(os.Stderr, "perfbench: %s op %d: %v\n", w.name, i, err)
			continue
		}
		if err := checkPin(w.name, seed, i, plain.fingerprint); err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s op %d: %v\n", w.name, i, err)
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cpu0 := cpuSeconds()
		tr.op = i
		out, err := w.run(opSeed(seed, i), tr)
		cpu := cpuSeconds() - cpu0
		runtime.ReadMemStats(&after)
		if err == nil && out.fingerprint != plain.fingerprint {
			err = fmt.Errorf("traced fingerprint %s differs from untraced %s", out.fingerprint, plain.fingerprint)
		}
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s traced op %d: %v\n", w.name, i, err)
			continue
		}
		traced++
		untracedWall += plain.wall
		tracedWall += out.wall

		l := out.layers
		l["go.alloc_bytes"] = float64(after.TotalAlloc - before.TotalAlloc)
		l["go.mallocs"] = float64(after.Mallocs - before.Mallocs)
		l["go.gc_cycles"] = float64(after.NumGC - before.NumGC)
		l["go.gc_pause_s"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e9
		l["go.cpu_s"] = cpu
		l["trace.wall_s"] = out.wall
		for k, v := range l {
			sum[k] += v
		}
	}
	if traced == 0 {
		return result{Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	}

	metrics := map[string]metric{}
	for _, d := range layerMetrics {
		metrics[d.name] = metric{sum[d.name] / float64(traced), d.unit}
	}
	metrics["trace.overhead"] = metric{tracedWall / untracedWall, "ratio"}
	finishRatios(metrics)
	if err := tr.write(w.name); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: write spans:", err)
	}
	printLayers(w.name, seed, traced, metrics)
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}
}

// median returns the middle of xs (mean of the two middles for even len).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// printTiming prints a measurement's median, the highest of
// p50/p75/p90/p95/p99 with at least ten samples beyond it, the sample count
// and the samples.
func printTiming(name, unit string, xs []float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	tail := "no tail percentile (fewer than 20 samples)"
	for _, p := range []float64{99, 95, 90, 75, 50} {
		if float64(len(s))*(1-p/100) >= 10 {
			rank := int(math.Ceil(p/100*float64(len(s)))) - 1
			tail = fmt.Sprintf("p%g %.6g %s", p, s[rank], unit)
			break
		}
	}
	fmt.Printf("  %-20s median %.6g %s, %s, n=%d, samples %.4g\n", name, median(s), unit, tail, len(s), xs)
}

// rusage returns the process's resource usage.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: getrusage:", err)
		os.Exit(1)
	}
	return ru
}

// cpuSeconds returns the process's user plus system CPU time.
func cpuSeconds() float64 {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS returns freed memory to the OS and resets the process's
// peak-RSS mark, so the next peakRSSMB covers one operation alone.
func resetPeakRSS() {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: cannot reset the peak-RSS mark; peak_rss_mb is the process peak:", err)
	}
}

// peakRSSMB returns the peak resident set since the last resetPeakRSS, in
// MiB, from /proc/self/status (VmHWM), or the process peak when that cannot
// be read.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			var kb float64
			if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return float64(rusage().Maxrss) / 1024 // Linux reports KiB
}
