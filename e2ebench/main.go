// Command e2ebench is the repository's end-to-end benchmark. One
// process runs one named workload in-process against the library's
// public functions, checks every output against references computed
// here, and prints one JSON result as the last line of standard
// output:
//
//	go run . --workload serve-read --seed 3 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with
// --trace 1 it holds the per-layer metrics of the traced run. See
// README.md for the workloads, metrics and bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// workload is one named benchmark run.
type workload struct {
	name string
	run  func(cfg runConfig) (*result, error)
}

var workloads = []workload{
	{"gcn-train", runGCNTrain},
	{"serve-read", runServeRead},
	{"serve-mutate", runServeMutate},
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// tiny shrinks every input so the workload finishes in well under
	// a second (the package's own tests).
	tiny bool
}

func main() {
	name := flag.String("workload", "", "workload name: gcn-train, serve-read or serve-mutate")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured phase length in seconds")
	trace := flag.Int("trace", 0, "1 = traced run (per-layer metrics), 0 = end-to-end metrics")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be > 0 and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := w.run(runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: check failed: %s\n", w.name, p)
	}
	if res.traceE2E != nil {
		// The traced run's own end-to-end figures, for the tracing
		// overhead (traced minus untraced); not the result line.
		line, _ := json.Marshal(res.traceE2E.asJSON())
		fmt.Printf("traced-run end-to-end: %s\n", line)
	}
	out, err := res.output(*trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
