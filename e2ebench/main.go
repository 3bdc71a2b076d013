// Command e2ebench is the repository's end-to-end benchmark. It runs one
// named workload in-process against the wiring flowerd builds with
// -http and -data-dir — one scheduler, a registry and the lab engine on
// it, the control WAL, and the /v1 API on a loopback listener — measures
// one window, checks the outputs, and prints every metric by name with
// its unit. The last line of standard output is a JSON summary:
//
//	{"correct": true, "attempted": 3010, "failed": 0, "metrics": {"api_p50_ms": {"value": 1.2, "unit": "ms"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// also times the calls the benchmark makes into each module (shadow-flow
// substrate ticks, WAL appends, probe fires, client requests) and reports
// the per-layer metrics instead. A failed correctness check exits 1.
//
// Run it from the repository root with e2ebench/run.sh, which builds it:
//
//	bash e2ebench/run.sh --workload api_mixed --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func maxProcs() int { return runtime.GOMAXPROCS(0) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run: pace_fresh, pace_aged or api_mixed")
	seed := fl.Int64("seed", 1, "seed for flow seeds and the request schedule")
	seconds := fl.Float64("seconds", 10, "length of the measured window")
	trace := fl.Int("trace", 0, "1: report per-layer metrics from a traced run")
	catalog := fl.Bool("catalog", false, "print the workloads and metric definitions as JSON and exit")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *catalog {
		return printCatalog(stdout)
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: need -workload pace_fresh|pace_aged|api_mixed, -seconds > 0, -trace 0|1\n")
		return 2
	}
	// Pin the Go scheduler to the CPUs this process may use.
	runtime.GOMAXPROCS(runtime.NumCPU())
	// WAL data and span files go where run.sh keeps the build: under
	// .bench_build in the repository root, the working directory.
	const scratch = ".bench_build"
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	cfg := config{w: w, seed: *seed, window: time.Duration(*seconds * float64(time.Second)), traced: *trace == 1, scratch: scratch}

	meta := runRecord(cfg, ".")
	mb, _ := json.Marshal(meta)
	fmt.Fprintf(stdout, "run %s\n", mb)
	o, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w.name, err)
		return 1
	}
	return report(o, stdout)
}

// report prints every metric and the closing JSON line; it returns the
// exit code.
func report(o *outcome, out io.Writer) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: len(o.failures) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]value)}
	for _, m := range o.metrics {
		fmt.Fprintf(out, "metric %-40s %14.6g %s\n", m.name, m.value, m.unit)
		summary.Metrics[m.name] = value{m.value, m.unit}
	}
	for _, m := range o.info {
		fmt.Fprintf(out, "info   %-40s %14.6g %s\n", m.name, m.value, m.unit)
	}
	for _, st := range o.selfTimes {
		fmt.Fprintf(out, "self   %-40s %14.6g ms over %d spans\n", st.name, st.totalMs, st.spans)
	}
	if o.invalid != "" {
		fmt.Fprintf(out, "invalid run: %s\n", o.invalid)
	}
	for _, f := range o.failures {
		fmt.Fprintf(out, "check failed: %s\n", f)
	}
	b, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintf(out, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", b)
	if !summary.Correct {
		return 1
	}
	return 0
}

// printCatalog prints the workloads with their reasons and every metric
// definition, including what each per-layer metric should move.
func printCatalog(out io.Writer) int {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	c := struct {
		Workloads []wl        `json:"workloads"`
		EndToEnd  []metricDef `json:"end_to_end"`
		Latencies []metricDef `json:"latencies"`
		PerLayer  []metricDef `json:"per_layer"`
	}{EndToEnd: endToEnd, Latencies: latencies, PerLayer: perLayer}
	for _, w := range workloads {
		c.Workloads = append(c.Workloads, wl{w.name, w.why})
	}
	b, err := json.Marshal(c)
	if err != nil {
		fmt.Fprintf(out, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", b)
	return 0
}

// runRecord is the machine and input record every result carries.
func runRecord(cfg config, root string) map[string]any {
	return map[string]any{
		"workload":   cfg.w.name,
		"seed":       cfg.seed,
		"seconds":    cfg.window.Seconds(),
		"traced":     cfg.traced,
		"cpu_model":  cpuModel(),
		"cpu_count":  runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"git_commit": gitCommit(root),
		"source":     sourceDigest(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit reads HEAD without running git; a checkout exported without
// its .git directory reports "unknown" and relies on the source digest.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under root, so two
// results can be matched to the same code without git.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && strings.HasPrefix(n, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
