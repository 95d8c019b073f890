// Command pinfi-run performs a PINFI-style fault-injection campaign at
// the assembly level against one benchmark (or a minic source file),
// mirroring the paper's §IV workflow, including the flag-dependent-bit
// and XMM-pruning activation heuristics.
//
// The campaign is a one-cell study: at the same -n and -seed it prints
// the counts of ficompare's (benchmark, PINFI, category) cell and shares
// its warehouse records.
//
// Usage:
//
//	pinfi-run -bench bzip2m -category arithmetic -n 1000 -seed 1
//	pinfi-run -src prog.c -category load -n 200 -disasm
package main

import (
	"flag"
	"fmt"
	"os"

	"hlfi/internal/adaptive"
	"hlfi/internal/cli"
	"hlfi/internal/fault"
	"hlfi/internal/pinfi"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pinfi-run:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("pinfi-run", flag.ContinueOnError)
	var (
		benchName = fs.String("bench", "", "benchmark name (bzip2m|mcfm|hmmerm|quantumm|oceanm|raytracem)")
		srcPath   = fs.String("src", "", "minic source file to inject into (alternative to -bench)")
		catName   = fs.String("category", "all", "instruction category: all|arithmetic|cast|cmp|load")
		n         = fs.Int("n", 1000, "activated injections to collect")
		seed      = fs.Int64("seed", 1, "study seed: at the same -n and -seed the cell is ficompare's cell")
		verbose   = fs.Bool("v", false, "print activation accounting")
		disasm    = fs.Bool("disasm", false, "print the lowered assembly, marking the category's injection candidates, and exit")
		events    = fs.String("events", "", "write the campaign telemetry event stream (JSONL) to this file")
		status    = fs.String("status", "", "serve live observability on this address (/metrics, /statusz, /debug/pprof/)")
		traceAtt  = fs.Int("trace-attempts", 0, "record fault-propagation traces for the first N attempts as attempt_trace events")
		reference = fs.Bool("reference", false, cli.ReferenceUsage)
		adaptFlag = fs.String("adaptive", "off", "adaptive early stopping: off|on|eps=E,min=M,check=C (stop once every outcome-rate Wilson CI is narrower than eps)")
		warehouse = fs.String("warehouse", "", "content-addressed result warehouse directory: a cached record for this exact cell replays the summary without executing an injection, and a fresh result is stored back (the key space is ficompare's and the fleet's, so a store they filled serves this cell)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	adaptCfg, err := adaptive.Parse(*adaptFlag)
	if err != nil {
		return err
	}
	prog, err := cli.LoadProgram(*benchName, *srcPath)
	if err != nil {
		return err
	}
	cat, err := fault.ParseCategory(*catName)
	if err != nil {
		return err
	}
	if *disasm {
		// Annotate each instruction with a '*' when it is an injection
		// candidate for the selected category.
		cands := pinfi.Candidates(prog.Asm, cat)
		for i := range prog.Asm.Instrs {
			in := &prog.Asm.Instrs[i]
			if in.Fn != "" {
				fmt.Printf("\n%s:\n", in.Fn)
			}
			mark := " "
			if cands[i] {
				mark = "*"
			}
			fmt.Printf("%s %4d: %s\n", mark, i, in.String())
		}
		return nil
	}
	return cli.RunCampaign(os.Stdout, prog, fault.LevelASM, cat,
		cli.CampaignOptions{N: *n, Seed: *seed, Verbose: *verbose, EventsPath: *events,
			StatusAddr: *status, TraceAttempts: *traceAtt, Reference: *reference,
			Adaptive: adaptCfg, Warehouse: *warehouse})
}
