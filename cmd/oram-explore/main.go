// Command oram-explore is the automated design-space explorer: it sweeps a
// declarative configuration grid (a preset name or a JSON file, see
// internal/explore.Grid) under the workload suite, marks the Pareto
// frontier over {p99 latency, modeled cycles/op, on-chip bytes}, prints
// the frontier table and writes a schema-validated JSON report; -check
// validates an existing report:
//
//	oram-explore -grid smoke -out BENCH_pr7.json
//	oram-explore -check BENCH_pr7.json
//
// The paper's Section 4.1 figures are sections of cmd/oram-experiments.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"repro/internal/exp"
	"repro/internal/explore"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("oram-explore: ")
	var (
		seed       = flag.Int64("seed", 1, "PRNG seed")
		grid       = flag.String("grid", "", "design-space sweep: preset (smoke|full) or a JSON grid file")
		out        = flag.String("out", "BENCH_pr7.json", "report path for -grid")
		ops        = flag.Int("ops", 2048, "measured operations per (config, workload) cell")
		warmup     = flag.Int("warmup", 256, "unmeasured warm-up operations per cell")
		batch      = flag.Int("batch", 16, "submission batch size for padded configs")
		checkPath  = flag.String("check", "", "validate an existing report against the embedded schema and exit")
		minConfigs = flag.Int("min-configs", 0, "with -check: minimum distinct configurations the report must cover")
	)
	flag.Parse()

	if *checkPath != "" {
		runCheck(*checkPath, *minConfigs)
		return
	}
	if *grid == "" {
		flag.Usage()
		os.Exit(2)
	}
	runGrid(*grid, *out, explore.Options{Ops: *ops, Warmup: *warmup, Batch: *batch, Seed: *seed})
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// runCheck validates an existing report file against the embedded
// schema's constraints and additionally requires a non-empty marked
// Pareto frontier and (when minConfigs > 0) a minimum sweep breadth —
// the properties CI's explore-smoke job gates on.
func runCheck(path string, minConfigs int) {
	data, err := os.ReadFile(path)
	check(err)
	check(explore.ValidateReport(data))
	var rep explore.Report
	check(json.Unmarshal(data, &rep))
	frontier := 0
	configs := map[string]bool{}
	for _, b := range rep.Benchmarks {
		if b.Pareto {
			frontier++
		}
		configs[b.Config] = true
	}
	if frontier == 0 {
		log.Fatalf("%s: no Pareto-marked rows — the frontier must be non-empty", path)
	}
	if len(configs) < minConfigs {
		log.Fatalf("%s: %d distinct configurations, gate requires >= %d", path, len(configs), minConfigs)
	}
	fmt.Printf("%s: schema-valid, %d rows over %d configurations, %d on the Pareto frontier\n",
		path, len(rep.Benchmarks), len(configs), frontier)
}

// runGrid sweeps the grid, marks the frontier, prints the table and
// writes the report.
func runGrid(gridName, outPath string, opts explore.Options) {
	g, err := explore.LoadGrid(gridName)
	check(err)
	rows, err := explore.Run(g, opts, log.Printf)
	check(err)
	explore.MarkPareto(rows, explore.Objectives)

	rep := explore.NewReport(gridName, explore.Objectives, rows)
	data, err := json.MarshalIndent(rep, "", "  ")
	check(err)
	check(explore.ValidateReport(data))
	check(os.WriteFile(outPath, append(data, '\n'), 0o644))

	front := explore.Frontier(rows)
	fmt.Printf("\n%d configurations x workloads measured; %d on the Pareto frontier over {%s}\n\n",
		len(rows), len(front), strings.Join(explore.Objectives, ", "))
	t := &exp.Table{Header: []string{"workload", "config", "p99-ns", "cycles/op", "onchip-B", "ns/op", "leakage"}}
	for _, r := range front {
		t.AddRow(r.Workload, r.Config,
			metric(r, "p99-ns"), metric(r, "cycles/op"), metric(r, "onchip-B"),
			metric(r, "ns/op"), r.Leakage)
	}
	fmt.Print(t)
	fmt.Printf("\nreport written to %s (validate with -check %s)\n", outPath, outPath)
}

func metric(r explore.Row, key string) string {
	v, ok := r.Metrics[key]
	if !ok {
		return "-"
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}
