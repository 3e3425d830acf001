// Command bench is the repository's benchmark: batch schema discovery
// and a real `pghive serve` process, measured end to end and layer by
// layer from outside the program. BENCHMARK.json at the root of the
// checkout names its workloads, metrics and bounds; README.md in this
// directory explains them.
//
//	bash bench/run.sh --workload clean_large --seed 1 --seconds 50 --trace 0
//	bash bench/run.sh --workload noisy_small --seed 1 --seconds 50 --trace 1
//	bash bench/run.sh -repeat 10 -vary-seed
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workload is one named input set. Every run reports every metric, so
// a workload pairs a discovery regime with a serving regime and drives
// both, one after the other, from the same seed.
type workload struct {
	name string

	// Discovery regime: LDBC at discScale, optionally through
	// datagen.InjectNoise(propNoise, labelAvail).
	discRegime string
	discScale  float64
	propNoise  float64
	labelAvail float64
	minReps    int

	// Serving regime: base graph size, open-phase write rate and how
	// many writes the ledger holds (more than any phase mix consumes).
	serveRegime  string
	baseScale    float64
	writeRate    float64
	ledgerWrites int

	// Shares of --seconds given to the time-boxed phases. What is left
	// is the estimate for the count-boxed ones (compaction rounds,
	// crash and recovery, verification).
	discoverShare, openShare float64
}

const (
	readRate      = 100.0 // open-phase reads per second
	roundWrites   = 200   // acked writes between two compaction rounds, and before the kill
	compactRounds = 3
	setups        = 3 // how many times the untraced run sets a server up and times it
	recoveries    = 3 // how many times the killed server's directory is recovered and timed
)

var workloads = []workload{
	{
		name:       "noisy_small",
		discRegime: "discover_noisy", discScale: 2, propNoise: 0.2, labelAvail: 0.5, minReps: 4,
		serveRegime: "serve_small", baseScale: 1, writeRate: 60, ledgerWrites: 3200,
		discoverShare: 0.30, openShare: 0.32,
	},
	{
		name:       "clean_large",
		discRegime: "discover_clean", discScale: 50, propNoise: 0, labelAvail: 1, minReps: 10,
		serveRegime: "serve_large", baseScale: 10, writeRate: 35, ledgerWrites: 2800,
		discoverShare: 0.12, openShare: 0.32,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef names one metric the benchmark promises to print.
type metricDef struct{ name, unit string }

// endToEnd and perLayer are printed with --trace 0 and --trace 1
// respectively; BENCHMARK.json lists the same names with their
// direction and bounds (a test keeps the two in step).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"node_f1", "f1"},
	{"edge_f1", "f1"},
	{"discover_alloc_mb", "MiB"},
	{"peak_rss_mb", "MiB"},
	{"data_dir_mb", "MiB"},
	{"checkpoint_mb_per_round", "MiB"},
	{"schema_json_mb", "MiB"},
}

// value is one measured metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report gathers what a run measured and what it found wrong.
type report struct {
	values    map[string]value
	samples   map[string]int
	notes     []string // regime lines and other context for the printed table
	attempted int
	failed    int
	problems  []string // correctness-gate failures
}

func newReport() *report {
	return &report{values: map[string]value{}, samples: map[string]int{}}
}

func (r *report) set(name, unit string, v float64, samples int) {
	r.values[name] = value{Value: v, Unit: unit}
	r.samples[name] = samples
}

// problem records a correctness-gate failure; the run ends with
// correct=false and a non-zero exit.
func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// ops books operations a phase attempted and how many of them failed.
func (r *report) ops(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// finish prints the table and the result line for the metrics in defs
// and returns the process exit code.
func (r *report) finish(defs []metricDef) int {
	for _, d := range defs {
		if _, ok := r.values[d.name]; !ok {
			r.problem("metric %s was not measured", d.name)
		}
	}
	if r.failed > 0 {
		r.problem("%d of %d operations failed", r.failed, r.attempted)
	}
	for _, n := range r.notes {
		fmt.Println(n)
	}
	fmt.Printf("%-36s %16s %-8s %s\n", "metric", "value", "unit", "samples")
	res := result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		v := r.values[d.name]
		if v.Unit == "" {
			v.Unit = d.unit
		}
		res.Metrics[d.name] = v
		fmt.Printf("%-36s %16.6g %-8s %d\n", d.name, v.Value, v.Unit, r.samples[d.name])
	}
	var others []string
	for name := range r.values {
		if _, listed := res.Metrics[name]; !listed {
			others = append(others, name)
		}
	}
	sort.Strings(others)
	if len(others) > 0 {
		fmt.Println("also measured in this run (not in its result line):")
	}
	for _, name := range others {
		fmt.Printf("%-36s %16.6g %-8s %d\n", name, r.values[name].Value, r.values[name].Unit, r.samples[name])
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "bench: INCORRECT:", p)
	}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// config is what the command line resolved to.
type config struct {
	wl      *workload
	seed    int64
	seconds float64
	root    string // checkout root: holds BENCHMARK.json and the module under test
	build   string // build and scratch directory, inside the checkout
	runDir  string // this process's scratch: data directories, removed on exit
	outDir  string // traces and server logs, kept
}

// budget is the share of --seconds a time-boxed phase gets.
func (c *config) budget(share float64) time.Duration {
	return time.Duration(share * c.seconds * float64(time.Second))
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name     = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Float64("seconds", 50, "how long one run measures")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced pass, per-layer metrics")
		repeat   = flag.Int("repeat", 0, "run every workload (or the one named) this many times and print median, quartiles and spread against the bounds in BENCHMARK.json")
		varySeed = flag.Bool("vary-seed", false, "with -repeat: give run i the seed seed+i, as the acceptance rule does")
		root     = flag.String("root", ".", "root of the checkout under test")
		build    = flag.String("build-dir", "", "build and scratch directory (default <root>/.bench_build)")
		pins     = flag.Bool("print-pins", false, "print the pinned discovery outputs for -workload and -seed as Go source and exit")
	)
	flag.Parse()

	cfg := &config{seed: *seed, seconds: *seconds}
	var err error
	if cfg.root, err = filepath.Abs(*root); err != nil {
		return die(err)
	}
	if cfg.build = *build; cfg.build == "" {
		cfg.build = filepath.Join(cfg.root, ".bench_build")
	}
	if _, err := os.Stat(filepath.Join(cfg.root, "BENCHMARK.json")); err != nil {
		return die(fmt.Errorf("no BENCHMARK.json in %s: run from the root of the checkout (bash bench/run.sh) or pass -root", cfg.root))
	}
	cfg.outDir = filepath.Join(cfg.build, "out")
	cfg.runDir = filepath.Join(cfg.build, "tmp", fmt.Sprintf("run-%d", os.Getpid()))
	for _, d := range []string{cfg.outDir, cfg.runDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return die(err)
		}
	}
	onExit(func() {
		os.RemoveAll(cfg.runDir)
		settleDisk() // so the next run does not start in this one's wake
	})
	cleanupOnSignal()
	defer runCleanup()

	if *repeat > 0 {
		return repeatRuns(cfg, *name, *repeat, *varySeed)
	}
	if cfg.wl = workloadByName(*name); cfg.wl == nil {
		return die(fmt.Errorf("unknown workload %q: want one of %s", *name, strings.Join(workloadNames(), ", ")))
	}
	if cfg.seconds < 1 {
		return die(fmt.Errorf("-seconds %g: want at least 1", cfg.seconds))
	}
	if *pins {
		return printPins(cfg)
	}
	printEnvironment(cfg)

	rep := newReport()
	defs := endToEnd
	if *trace != 0 {
		defs = perLayer
		err = tracedRun(cfg, rep)
	} else {
		err = endToEndRun(cfg, rep)
	}
	if err != nil {
		// A run that could not complete has no result worth printing;
		// the error says why.
		return die(err)
	}
	return rep.finish(defs)
}

func die(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	sort.Strings(out)
	return out
}

// printEnvironment records what the numbers were measured on.
func printEnvironment(cfg *config) {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	kernel := "unknown"
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(data))
	}
	fstype := "unknown"
	var st syscall.Statfs_t
	if err := syscall.Statfs(cfg.runDir, &st); err == nil {
		fstype = fmt.Sprintf("0x%x", st.Type)
	}
	fmt.Printf("environment: go=%s os=%s/%s kernel=%s nproc=%d GOMAXPROCS=%d cpu=%q data-dir-fs=%s\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, kernel, runtime.NumCPU(), runtime.GOMAXPROCS(0), cpu, fstype)
	fmt.Printf("run: workload=%s (%s + %s) seed=%d seconds=%g started=%s\n",
		cfg.wl.name, cfg.wl.discRegime, cfg.wl.serveRegime, cfg.seed, cfg.seconds, time.Now().UTC().Format(time.RFC3339))
}
