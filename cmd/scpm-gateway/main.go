// Command scpm-gateway fronts N sharded scpm-serve replicas with one
// scatter-gather HTTP endpoint, so clients query a sharded deployment
// exactly like a single server.
//
// It has two modes. Serving (the default) loads a shard manifest and
// fans queries out to the replica base URLs:
//
//	scpm-gateway -manifest manifest.json \
//	             -shards http://127.0.0.1:8081,http://127.0.0.1:8082 \
//	             -addr :8080
//
// Enumeration queries (/sets, /patterns, /vertices/{v}) scatter to all
// shards and merge into the canonical order — byte-identical to a
// single-process scpm-serve because the lattice partitions are
// disjoint. Single-owner queries (/epsilon, /sets/{id}) route to the
// owning shard via the manifest. POST /updates forwards to every
// shard; /version aggregates a version vector flagging replica skew;
// /healthz reports per-shard reachability. A dead replica degrades
// scatter queries to partial results (flagged with the
// X-Scpm-Partial-Shards header) instead of failing them.
//
// Planning (-plan N) partitions a dataset's attribute-set lattice into
// N shards, evaluates every level-1 single once, and writes the
// checksummed v2 manifest — plan plus sealed verdicts — that the
// serving mode and scpm-serve -manifest consume; replicas booting from
// it replay the sealed evaluations instead of repeating them. The
// mining flags (-sigma, -gamma, -minsize, -eps, …) apply to plan mode
// only and must match what the replicas will run with; scpm-serve
// defines them in the same place (internal/cli), so passing both
// commands the same mining arguments is enough:
//
//	scpm-gateway -plan 2 -attrs graph.attrs -edges graph.edges \
//	             -sigma 100 -out manifest.json
//
//	scpm-gateway -plan 2 -example paper -sigma 3 -out manifest.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"

	scpm "github.com/scpm/scpm"
	"github.com/scpm/scpm/internal/cli"
	"github.com/scpm/scpm/internal/gateway"
	"github.com/scpm/scpm/internal/obs"
	"github.com/scpm/scpm/internal/server"
	"github.com/scpm/scpm/internal/shard"
	"github.com/scpm/scpm/internal/version"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scpm-gateway", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		manifestPath = fs.String("manifest", "", "shard manifest file (serving mode; write one with -plan)")
		shardsList   = fs.String("shards", "", "comma-separated shard base URLs, one per shard in manifest order")
		addr         = fs.String("addr", ":8080", "listen address")
		metrics      = fs.String("metrics-addr", "", "additional listen address serving only /metrics and /debug/pprof (the main listener serves them too)")
		timeout      = fs.Duration("timeout", gateway.DefaultTimeout, "per-shard subrequest timeout")
		quiet        = fs.Bool("quiet", false, "disable request logging")
		planN        = fs.Int("plan", 0, "plan mode: partition the dataset into N shards and write the manifest to -out")
		attrsPath    = fs.String("attrs", "", "plan mode: vertex attribute file")
		edgesPath    = fs.String("edges", "", "plan mode: edge list file")
		example      = fs.String("example", "", `plan mode: use a built-in dataset ("paper")`)
		out          = fs.String("out", "manifest.json", "plan mode: manifest output path")
		snapshots    = fs.String("snapshots", "", "plan mode: comma-separated per-shard snapshot paths to record in the manifest")
		mining       = cli.MiningFlags(fs)
		showVer      = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showVer {
		fmt.Fprintln(stdout, version.String("scpm-gateway"))
		return 0
	}

	if *planN > 0 {
		popts, err := mining.Options()
		if err != nil {
			fmt.Fprintln(stderr, "scpm-gateway:", err)
			return 2
		}
		miner, err := scpm.NewMiner(popts...)
		if err != nil {
			fmt.Fprintln(stderr, "scpm-gateway:", err)
			return 2
		}
		return runPlan(ctx, *planN, *attrsPath, *edgesPath, *example, miner.Params(), *out, *snapshots, stdout, stderr)
	}

	if *manifestPath == "" {
		fmt.Fprintln(stderr, "scpm-gateway: -manifest is required (write one with -plan)")
		return 2
	}
	man, err := shard.LoadManifest(*manifestPath)
	if err != nil {
		fmt.Fprintln(stderr, "scpm-gateway:", err)
		return 2
	}
	var urls []string
	for _, u := range strings.Split(*shardsList, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) != man.Shards {
		fmt.Fprintf(stderr, "scpm-gateway: -shards lists %d URLs, manifest %s declares %d shards\n",
			len(urls), *manifestPath, man.Shards)
		return 2
	}
	reg := scpm.NewMetricsRegistry()
	cfg := gateway.Config{Manifest: man, Shards: urls, Timeout: *timeout, Metrics: reg}
	if !*quiet {
		cfg.Logger = slog.New(slog.NewTextHandler(stderr, nil))
	}
	h, err := gateway.New(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "scpm-gateway:", err)
		return 2
	}
	if *metrics != "" {
		maddr, stopMetrics, err := obs.Start(*metrics, reg)
		if err != nil {
			fmt.Fprintln(stderr, "scpm-gateway:", err)
			return 1
		}
		defer stopMetrics()
		fmt.Fprintf(stdout, "scpm-gateway: metrics on %s\n", maddr)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "scpm-gateway:", err)
		return 1
	}
	fmt.Fprintf(stdout, "scpm-gateway: fronting %d shards (%s)\n", man.Shards, strings.Join(urls, ", "))
	fmt.Fprintf(stdout, "scpm-gateway: listening on %s\n", ln.Addr())
	if err := server.Serve(ctx, ln, h); err != nil {
		fmt.Fprintln(stderr, "scpm-gateway:", err)
		return 1
	}
	fmt.Fprintln(stdout, "scpm-gateway: shut down cleanly")
	return 0
}

// runPlan loads the dataset, partitions its lattice and writes the
// sealed v2 manifest with every level-1 verdict baked in.
func runPlan(ctx context.Context, n int, attrsPath, edgesPath, example string, p scpm.Params, out, snapshots string, stdout, stderr io.Writer) int {
	g, err := cli.LoadGraph(attrsPath, edgesPath, example)
	if errors.Is(err, cli.ErrNoDataset) {
		err = errors.New("plan mode needs -attrs and -edges (or -example paper)")
	}
	if err != nil {
		fmt.Fprintln(stderr, "scpm-gateway:", err)
		return 2
	}
	var snaps []string
	if snapshots != "" {
		for _, s := range strings.Split(snapshots, ",") {
			snaps = append(snaps, strings.TrimSpace(s))
		}
	}
	man, err := shard.BuildManifestSealed(ctx, g, p, n, snaps)
	if err != nil {
		fmt.Fprintln(stderr, "scpm-gateway:", err)
		return 2
	}
	if err := shard.WriteManifest(man, out); err != nil {
		fmt.Fprintln(stderr, "scpm-gateway:", err)
		return 1
	}
	perShard := make([]int, n)
	for _, r := range man.Roots {
		perShard[r.Shard]++
	}
	fmt.Fprintf(stdout, "scpm-gateway: planned %d frequent roots over %d shards (roots per shard: %v)\n",
		len(man.Roots), n, perShard)
	fmt.Fprintf(stdout, "scpm-gateway: sealed %d level-1 verdicts (%s)\n", len(man.Level1.Verdicts), man.Format)
	fmt.Fprintf(stdout, "scpm-gateway: wrote manifest %s\n", out)
	return 0
}
