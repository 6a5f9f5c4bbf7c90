// Command oram-experiments regenerates the tables and figures of the
// paper's evaluation and prints a consolidated report (the source of
// EXPERIMENTS.md). With no arguments every section runs, in report order;
// name sections to run a subset. -quick shrinks the problem sizes for a
// smoke pass:
//
//	oram-experiments -quick
//	oram-experiments -quick fig4 fig11
//
// The trace tool records synthetic benchmark traces to files and replays
// them through the processor model, so a run can be repeated
// bit-identically or fed an externally produced trace in the same format
// (see internal/trace.Write for the encoding):
//
//	oram-experiments trace list
//	oram-experiments trace record PROFILE FILE
//	oram-experiments trace replay FILE
//
// Problem sizes are the exp.Default* configs; other sizes are a config
// edit away in Go, as examples/designspace shows.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/cpu"
	"repro/internal/exp"
	"repro/internal/trace"
)

// section is one artifact of the report: run prints its tables to stdout.
type section struct {
	name, title string
	run         func(quick bool) error
}

// sections is the report, in print order.
var sections = []section{
	{"fig3", "Figure 3: stash occupancy", func(quick bool) error {
		cfg := exp.DefaultFig3()
		if quick {
			cfg.WorkingSetBlocks = 1 << 12
		}
		return show(exp.RunFig3(cfg))
	}},
	{"fig4", "Figure 4: CPL attack on insecure eviction", func(quick bool) error {
		cfg := exp.DefaultFig4()
		if quick {
			cfg.Experiments = 20
		}
		return show(exp.RunFig4(cfg))
	}},
	{"fig7", "Figure 7: dummy/real ratio vs stash size", func(quick bool) error {
		cfg := exp.DefaultFig7()
		if quick {
			cfg.WorkingSetBlocks = 1 << 12
		}
		return show(exp.RunFig7(cfg))
	}},
	{"fig8", "Figure 8: access overhead vs utilization", func(quick bool) error {
		cfg := exp.DefaultFig8()
		if quick {
			cfg.WorkingSetBlocks = 1 << 12
		}
		r, err := exp.RunFig8(cfg)
		if err := show(r, err); err != nil {
			return err
		}
		if best := r.Best(); best != nil {
			fmt.Printf("best: Z=%d at %.0f%% utilization, overhead %.1f\n",
				best.Z, 100*best.Utilization, best.Overhead)
		}
		return nil
	}},
	{"fig9", "Figure 9: access overhead vs capacity", func(quick bool) error {
		cfg := exp.DefaultFig9()
		if quick {
			cfg.WorkingSets = []uint64{1 << 10, 1 << 12}
		}
		return show(exp.RunFig9(cfg))
	}},
	{"fig10", "Figure 10: hierarchical overhead breakdown", func(quick bool) error {
		cfg := exp.DefaultFig10()
		if quick {
			cfg.SimWorkingSet = 1 << 12
			cfg.SimAccesses = 1 << 14
		}
		r, err := exp.RunFig10(cfg)
		if err := show(r, err); err != nil {
			return err
		}
		if red, err := r.ReductionVsBase("DZ3Pb32"); err == nil {
			fmt.Printf("DZ3Pb32 reduction vs baseORAM: %.1f%% (paper: 41.8%%)\n", 100*red)
		}
		if red, err := r.ReductionVsBase("DZ4Pb32"); err == nil {
			fmt.Printf("DZ4Pb32 reduction vs baseORAM: %.1f%% (paper: 35.0%%)\n", 100*red)
		}
		return nil
	}},
	{"fig5", "Figure 5: hierarchical access ordering", func(bool) error {
		return show(exp.RunFig5(exp.DZ3Pb32, 1<<25, 2, 32, 31))
	}},
	{"fig11", "Figure 11: DRAM placement", func(quick bool) error {
		cfg := exp.DefaultFig11()
		if quick {
			cfg.Accesses = 16
		}
		return show(exp.RunFig11(cfg))
	}},
	{"table2", "Table 2: latency and on-chip storage", func(bool) error {
		return show(exp.RunTable2(exp.DefaultTable2()))
	}},
	{"fig12", "Figure 12: SPEC benchmark slowdowns", func(quick bool) error {
		cfg := exp.DefaultFig12()
		if quick {
			cfg.Instructions = 100_000
			cfg.Warmup = 100_000
			cfg.SimWorkingSet = 1 << 12
			cfg.SimAccesses = 1 << 14
		}
		r, err := exp.RunFig12(cfg)
		if err := show(r, err); err != nil {
			return err
		}
		if imp, err := r.ImprovementVsBase("DZ3Pb32"); err == nil {
			fmt.Printf("DZ3Pb32 improvement vs baseORAM: %.1f%% (paper: 43.9%%)\n", 100*imp)
		}
		if imp, err := r.ImprovementVsBase("DZ4Pb32+SB"); err == nil {
			fmt.Printf("DZ4Pb32+SB improvement vs baseORAM: %.1f%% (paper: 52.4%%)\n", 100*imp)
		}
		return nil
	}},
	{"integrity", "Section 5: integrity verification", func(bool) error {
		return show(exp.RunIntegrity(exp.DefaultIntegrity()))
	}},
	{"ablate", "Ablations: super-block size, exclusive ORAM, encryption, stash size, DRAM channels", runAblations},
}

// The ablations' working set (blocks) and seed for the protocol
// measurements; -quick does not shrink them (the section takes seconds).
const (
	ablateWorkingSet = 1 << 13
	ablateSeed       = 41
)

// runAblations isolates the paper's design decisions beyond its printed
// figures: super-block size, the exclusive ORAM interface, the encryption
// schemes, stash capacity and DRAM channel scaling.
func runAblations(bool) error {
	sb := exp.DefaultSuperBlockAblation()
	sb.SimWorkingSet = ablateWorkingSet
	sb.Seed = ablateSeed
	if err := show(exp.RunSuperBlockAblation(sb)); err != nil {
		return err
	}
	if err := show(exp.RunExclusiveAblation(exp.DefaultExclusiveAblation())); err != nil {
		return err
	}
	fmt.Println(exp.RunEncryptionAblation(1 << 25).Table())
	if err := show(exp.RunStashAblation(exp.DZ3Pb32SB, ablateWorkingSet, 1<<14,
		[]int{120, 160, 200, 300, 400}, ablateSeed)); err != nil {
		return err
	}
	return show(exp.RunDRAMChannelScaling(exp.DZ3Pb32, 1<<25, []int{1, 2, 4, 8}, 32, ablateSeed))
}

// show prints a harness result's table, or passes its error through.
func show[R interface{ Table() *exp.Table }](r R, err error) error {
	if err != nil {
		return err
	}
	fmt.Println(r.Table())
	return nil
}

// selectSections returns the named sections in report order (every
// section when names is empty), or an error naming the valid sections.
func selectSections(names []string) ([]section, error) {
	if len(names) == 0 {
		return sections, nil
	}
	for _, n := range names {
		if !slices.ContainsFunc(sections, func(s section) bool { return s.name == n }) {
			return nil, fmt.Errorf("unknown section %q; valid sections: %s", n, sectionNames())
		}
	}
	var out []section
	for _, s := range sections {
		if slices.Contains(names, s.name) {
			out = append(out, s)
		}
	}
	return out, nil
}

func sectionNames() string {
	names := make([]string, len(sections))
	for i, s := range sections {
		names[i] = s.name
	}
	return strings.Join(names, " ")
}

// The trace tool records this many instructions, with this seed.
const (
	traceInstructions = 1_000_000
	traceSeed         = 1
)

const traceUsage = "trace list | trace record PROFILE FILE | trace replay FILE"

var errTraceUsage = errors.New("usage: oram-experiments " + traceUsage)

// runTrace is the trace subcommand; args follow the word "trace".
func runTrace(w io.Writer, args []string) error {
	switch {
	case len(args) == 1 && args[0] == "list":
		for _, p := range trace.SPEC06() {
			fmt.Fprintf(w, "%-12s memfrac=%.2f seq=%.2f chase=%.3f ws=%dMB\n",
				p.Name, p.MemFrac, p.SeqFrac, p.ChaseFrac, p.WorkingSet>>20)
		}
		return nil
	case len(args) == 3 && args[0] == "record":
		return recordTrace(w, args[1], args[2], traceInstructions)
	case len(args) == 2 && args[0] == "replay":
		return replayTrace(w, args[1])
	}
	return errTraceUsage
}

// recordTrace writes n instructions of the named profile to path.
func recordTrace(w io.Writer, profile, path string, n int) error {
	p := trace.ProfileByName(profile)
	if p == nil {
		return fmt.Errorf("%w (unknown profile %q; see trace list)", errTraceUsage, profile)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.Write(f, trace.Record(p.Generator(traceSeed), n)); err != nil {
		f.Close()
		return err
	}
	st, err := f.Stat()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "recorded %d instructions of %s to %s (%.2f bytes/instr)\n",
		n, profile, path, float64(st.Size())/float64(n))
	return nil
}

// replayTrace runs the trace at path through the CPU model with DZ3Pb32's
// Table 2 ORAM latencies as the memory.
func replayTrace(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	instrs, err := trace.Read(f)
	f.Close()
	if err != nil {
		return err
	}
	gen, err := trace.NewReplayer(instrs)
	if err != nil {
		return err
	}
	mem := &cpu.ORAMMemory{ReturnLat: 1848, FinishLat: 3440} // DZ3Pb32, Table 2
	res, err := cpu.Run(cpu.Default(), gen, mem, uint64(len(instrs)))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "replayed %d instructions: CPI=%.2f MPKI=%.2f (DZ3Pb32 ORAM memory)\n",
		res.Instructions, res.CPI(), res.MPKI())
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("oram-experiments: ")
	quick := flag.Bool("quick", false, "smaller problem sizes (smoke run)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: oram-experiments [-quick] [section ...]\n       oram-experiments %s\nsections: %s\n",
			traceUsage, sectionNames())
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()

	if len(args) > 0 && args[0] == "trace" {
		if err := runTrace(os.Stdout, args[1:]); err != nil {
			log.Print(err)
			if errors.Is(err, errTraceUsage) {
				os.Exit(2)
			}
			os.Exit(1)
		}
		return
	}

	run, err := selectSections(args)
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}
	start := time.Now()
	for _, s := range run {
		fmt.Printf("\n######## %s (t=%s) ########\n\n", s.title, time.Since(start).Round(time.Second))
		if err := s.run(*quick); err != nil {
			log.Fatalf("%s: %v", s.name, err)
		}
	}
	fmt.Printf("\ntotal runtime: %s\n", time.Since(start).Round(time.Millisecond))
}
