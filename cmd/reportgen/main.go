// Command reportgen regenerates every figure and table of the study
// from a dataset file (JSONL, possibly anonymized), mirroring the
// paper's reproducibility path via its released dataset.
//
// Usage:
//
//	reportgen [-csv] dataset.jsonl
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	opcuastudy "repro"
	"repro/internal/report"
)

func main() {
	log.SetFlags(0)
	switch err := run(os.Args[1:], os.Stdout); {
	case errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	case err != nil:
		log.Fatal(err)
	}
}

// errUsage reports command-line misuse; the flag set has already
// printed the usage.
var errUsage = errors.New("reportgen: bad usage")

// run analyzes the dataset args name and writes every table to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("reportgen", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: reportgen [-csv] dataset.jsonl")
		fs.PrintDefaults()
	}
	csv := fs.Bool("csv", false, "print tables as CSV")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return errUsage
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	// Records stream through the incremental analyzers one at a time;
	// the dataset is never materialized as a slice.
	analyses, long, err := opcuastudy.AnalyzeDataset(f)
	if err != nil {
		return err
	}
	if len(analyses) == 0 {
		return errors.New("dataset contains no analyzable waves")
	}
	for _, tbl := range report.All(analyses, long) {
		if *csv {
			fmt.Fprintln(stdout, tbl.CSV())
		} else {
			fmt.Fprintln(stdout, tbl.Render())
		}
	}
	return nil
}
