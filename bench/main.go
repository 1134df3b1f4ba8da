// Command bench is the repository's benchmark: five paper-class workloads
// driven through the protocol-v2 frontend of an in-process cluster, with
// an outside-in layer replay in traced runs. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var opt options
	var trace int
	var selfcheck int
	var spec bool
	flag.StringVar(&opt.workload, "workload", "", "workload to run (see -spec for the list)")
	flag.Int64Var(&opt.seed, "seed", 1, "seed for data and statements")
	flag.Float64Var(&opt.seconds, "seconds", 12, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1: traced run, prints the per-layer metrics")
	flag.IntVar(&selfcheck, "selfcheck", 0, "run N sets back to back on one seed and check that they agree")
	flag.BoolVar(&spec, "spec", false, "print BENCHMARK.json as the harness defines it")
	flag.Parse()
	opt.trace = trace != 0

	switch {
	case spec:
		b, _ := json.MarshalIndent(benchmarkSpec(), "", "  ")
		fmt.Println(string(b))
	case selfcheck > 0:
		if !selfCheck(opt, selfcheck) {
			os.Exit(1)
		}
	default:
		res, err := run(opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		printResult(res)
	}
}

// printResult prints every metric by name and unit, then the contract's
// JSON object as the last line.
func printResult(res *result) {
	for _, line := range res.detail {
		fmt.Println(line)
	}
	for _, name := range res.sortedNames() {
		v := res.metrics[name]
		fmt.Printf("%-34s %14.6g %s\n", name, v.Value, v.Unit)
	}
	fmt.Println(res.jsonLine())
}
