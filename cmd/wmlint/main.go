// Command wmlint is the repo's invariant multichecker: it runs the
// internal/lint analyzer suite — detrand (no nondeterminism sources in
// determinism-critical packages), spanown (no retention of pcapio arena
// spans), eventcase (exhaustive Monitor event switches) and doccheck
// (documented exported surface) — alongside go vet, over the packages
// matching its arguments.
//
//	go run ./cmd/wmlint ./...          # the CI lint-invariants job
//	go run ./cmd/wmlint -novet ./internal/attack
//
// Exit status 0 means the tree is clean; 1 means vet or an analyzer
// found something (or a //lint:allow marker is malformed, reasonless or
// stale). Intentional exceptions are annotated in the source:
//
//	//lint:allow <analyzer> <reason>
//
// on the offending line or the line above it; the run counts
// suppressions so exceptions stay visible.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"

	"repro/internal/lint"
)

func main() {
	novet := flag.Bool("novet", false, "skip the go vet pass")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: wmlint [-novet] [packages]\n\n"+
			"Runs go vet plus the repo's invariant analyzers (detrand, spanown,\n"+
			"eventcase, doccheck) over the given package patterns (default ./...).\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	failed := false
	if !*novet {
		vet := exec.Command("go", append([]string{"vet"}, patterns...)...)
		vet.Stdout, vet.Stderr = os.Stdout, os.Stderr
		if err := vet.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "wmlint: go vet failed: %v\n", err)
			failed = true
		}
	}

	res, err := lint.Run(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wmlint: %v\n", err)
		os.Exit(1)
	}
	res.Print(os.Stdout)
	if failed || !res.Clean() {
		os.Exit(1)
	}
}
