package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// benchmarkFile is BENCHMARK.json as far as this program reads it.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// repeatRuns is the repeatability mode: it runs the untraced benchmark
// n times per workload, each in a process of its own, and prints for
// every end-to-end metric the median, the quartiles and the spread
// between them as a share of the median, against the metric's bound
// from BENCHMARK.json. A spread within a third of the bound is steady;
// one past the bound makes the metric useless as a gate.
func repeatRuns(cfg *config, only string, n int, varySeed bool) int {
	bf, err := readBenchmarkFile(cfg.root)
	if err != nil {
		return die(err)
	}
	self, err := os.Executable()
	if err != nil {
		return die(err)
	}
	seconds := cfg.seconds
	if bf.RunSeconds > 0 {
		seconds = float64(bf.RunSeconds)
	}
	code := 0
	for _, wl := range workloads {
		if only != "" && only != wl.name {
			continue
		}
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			seed := cfg.seed
			if varySeed {
				seed += int64(i)
			}
			cmd := exec.Command(self, "-root", cfg.root, "-build-dir", cfg.build, "-workload", wl.name,
				"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			// Every run's full output is kept beside the traces.
			_ = os.WriteFile(filepath.Join(cfg.outDir, fmt.Sprintf("repeat-%s-%02d.out", wl.name, i+1)), out, 0o644)
			res, perr := lastResult(out)
			if err != nil || perr != nil || !res.Correct {
				fmt.Fprintf(os.Stderr, "bench: %s run %d (seed %d) failed: %v %v\n%s\n", wl.name, i+1, seed, err, perr, out)
				code = 1
				continue
			}
			fmt.Printf("%s run %d/%d seed %d: ok, %d operations\n", wl.name, i+1, n, seed, res.Attempted)
			for name, v := range res.Metrics {
				values[name] = append(values[name], v.Value)
			}
		}
		fmt.Printf("\n%s: %d runs\n%-24s %14s %14s %14s %8s %6s  %s\n", wl.name, n, "metric", "median", "q1", "q3", "spread", "bound", "")
		for _, m := range bf.EndToEnd {
			xs := values[m.Name]
			if len(xs) < 2 {
				continue
			}
			q1, q3 := quartiles(xs)
			med := median(xs)
			spread := (q3 - q1) / med
			verdict := "steady"
			switch {
			case m.Name != "setup_s" && spread > m.Bound:
				verdict = "WIDER THAN BOUND"
				code = 1
			case spread > m.Bound/3:
				verdict = "within bound, above a third of it"
			}
			fmt.Printf("%-24s %14.6g %14.6g %14.6g %7.2f%% %5.1f%%  %s\n", m.Name, med, q1, q3, 100*spread, 100*m.Bound, verdict)
		}
		fmt.Println("\nevery run, in order:")
		for _, m := range bf.EndToEnd {
			fmt.Printf("%-24s", m.Name)
			for _, x := range values[m.Name] {
				fmt.Printf(" %.5g", x)
			}
			fmt.Println()
		}
		fmt.Println()
	}
	return code
}

// lastResult parses the result line: the last line of a run's output.
func lastResult(out []byte) (*result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	return &res, nil
}
