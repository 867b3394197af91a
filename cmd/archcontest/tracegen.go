package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"archcontest"
	"archcontest/internal/spec"
)

// runTracegen inspects the synthetic workloads: instruction mix, memory
// footprint, and optionally a window of the raw trace. -save writes one
// generated trace atomically; -load summarizes a saved one.
func runTracegen(fs *flag.FlagSet, args []string) {
	bench := fs.String("bench", "", "benchmark name (empty = summarize all)")
	n := fs.Int("n", 100_000, "trace length in instructions")
	dump := fs.Int("dump", 0, "dump this many instructions from -offset")
	offset := fs.Int64("offset", 0, "dump starting index")
	save := fs.String("save", "", "write the generated trace (requires -bench) to this file")
	load := fs.String("load", "", "summarize a previously saved trace file instead of generating")
	fs.Parse(args)

	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		tr, err := archcontest.LoadTrace(f)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %8d insts  mix[%v]  footprint(64B) %6dKB\n",
			tr.Name(), tr.Len(), tr.Mix(), tr.Footprint(64)>>10)
		return
	}
	switch {
	case *dump < 0 || *offset < 0:
		usageError(fs, "-dump and -offset must be non-negative, got %d and %d", *dump, *offset)
	case *save != "" && *bench == "":
		usageError(fs, "-save needs -bench: it writes one trace")
	case *n > spec.MaxN:
		usageError(fs, "-n %d exceeds the maximum trace length %d", *n, spec.MaxN)
	}

	benches := archcontest.Benchmarks()
	if *bench != "" {
		benches = []string{*bench}
	}
	for _, name := range benches {
		tr, err := archcontest.GenerateTrace(name, *n)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %8d insts  mix[%v]  footprint(64B) %6dKB\n",
			name, tr.Len(), tr.Mix(), tr.Footprint(64)>>10)
		if *save != "" {
			if err := writeAtomic(*save, func(w io.Writer) error {
				_, err := tr.WriteTo(w)
				return err
			}); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("saved to %s\n", *save)
		}
		if *dump > 0 {
			end := min(*offset+int64(*dump), int64(tr.Len()))
			for i := *offset; i < end; i++ {
				fmt.Printf("  %8d: %v\n", i, *tr.At(i))
			}
		}
	}
}
