// Command perfbench is the repository's benchmark: seeded workloads over
// mining, live updates and serving, each checked against a reference
// answer, with a traced mode that reports per-layer numbers. README.md
// describes the workloads and metrics; run.sh builds and runs it.
//
//	perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is the run's result as JSON.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// env is the configuration and shared state of one workload run.
type env struct {
	seed      int64 // drives the delta chain and the query mix
	graphSeed int64 // datagen Config.Seed; 0 keeps the profile's
	seconds   time.Duration
	traced    bool
	tr        *tracer
	dir       string // scratch directory for snapshot files
	workers   int    // load generator goroutines and connections
}

type workload struct {
	name string
	run  func(context.Context, *env) (*report, error)
}

var workloads = []workload{
	{"dblp-mine", func(ctx context.Context, e *env) (*report, error) { return runMine(ctx, e, "dblp") }},
	{"dense-kernel", func(ctx context.Context, e *env) (*report, error) { return runMine(ctx, e, "dense") }},
	{"dblp-update", runUpdate},
	{"dblp-query", func(ctx context.Context, e *env) (*report, error) { return runServe(ctx, e, false) }},
	{"dblp-gateway", func(ctx context.Context, e *env) (*report, error) { return runServe(ctx, e, true) }},
}

// workdir, relative to the checkout root the benchmark runs from, holds
// the snapshot files of a run (removed when it ends) and the traces.
const workdir = ".bench_build"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "workload seed: delta chain and query mix")
	graphSeed := fs.Int64("graph-seed", 0, "graph generator seed (0: the profile's own, 1201 for dblp, 4242 for dense)")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s or all)\n", *name, strings.Join(names, ", "))
		return 2
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	ctx := context.Background()
	allCorrect := true
	for _, w := range selected {
		e := &env{
			seed:      *seed,
			graphSeed: *graphSeed,
			seconds:   time.Duration(*seconds) * time.Second,
			traced:    *trace == 1,
			tr:        newTracer(),
			dir:       dir,
			workers:   runtime.NumCPU(),
		}
		if e.traced {
			e.tr.setPhase("setup")
		}
		fmt.Fprintf(stdout, "perfbench %s seed=%d graph-seed=%d seconds=%d trace=%d workers=%d\n",
			w.name, e.seed, e.graphSeed, *seconds, *trace, e.workers)
		rep, err := w.run(ctx, e)
		e.tr.setPhase("")
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		if e.traced {
			path, err := e.tr.write(workdir+"/traces", fmt.Sprintf("%s-seed%d.json", w.name, e.seed))
			if err != nil {
				fmt.Fprintln(stderr, "perfbench: writing trace:", err)
				return 1
			}
			rep.note("spans written to %s", path)
		}
		if !rep.print(stdout, w.name, e.traced) {
			allCorrect = false
		}
	}
	if !allCorrect {
		fmt.Fprintln(stderr, "perfbench: wrong answers (see failed counts above)")
		return 1
	}
	return 0
}
