// Command wmdataset generates the synthetic IITM-Bandersnatch-style
// dataset: N viewer sessions spanning the Table-I operational and
// behavioural attribute grid, persisted as {NNN.pcap, NNN.json} pairs
// plus a content-hashed manifest.json and an attributes CSV, with the
// Table-I summary printed to stdout. DATASET.md documents the corpus
// format.
//
// Usage:
//
//	wmdataset -n 100 -seed 1 -out ./iitm-bandersnatch
//	wmdataset -n 1000 -workers 8   # fan sessions across 8 workers
//	wmdataset -n 100 -wire tls1.3+pad-to-64   # a modern-stack dataset
//	wmdataset -n 100 -wire quic               # an HTTP/3-era dataset (UDP)
//
//	# Fleet-scale: four processes, one shard each, then a merge.
//	wmdataset -n 100000 -shard 0/4 -out shard0   # ... 1/4, 2/4, 3/4
//	wmdataset -merge -out corpus shard0 shard1 shard2 shard3
//
// Generation is deterministic: the same -n and -seed produce byte-identical
// pcaps at any -workers value, and a merged -shard run is byte-identical
// to a single-process run (manifest and attributes.csv included). Points
// stream to disk one at a time, so resident memory is constant in -n.
// -wire names the stack every session speaks and the shaping policy in
// force, in the grammar DATASET.md spells out (tls1.2 by default;
// tls1.3[+pad-to-N|+pad-random-N]; quic[+fixed-N|+pad-full-N|
// +pad-random-N+K]; either TLS stack +reports-pad-N, +reports-split-N
// or +reports-compress-P); the manifest records the label.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/dataset"
	"repro/internal/session"
)

func main() {
	var (
		n         = flag.Int("n", 100, "number of viewers (the paper collected 100)")
		seed      = flag.Uint64("seed", 1, "deterministic seed")
		out       = flag.String("out", "iitm-bandersnatch", "output directory ('' to skip persistence)")
		csv       = flag.Bool("csv", true, "write attributes.csv alongside the dataset")
		workers   = flag.Int("workers", 0, "worker pool size (0 = WM_WORKERS or GOMAXPROCS)")
		wireSpec  = flag.String("wire", "tls1.2", "wire stack and shaping policy: tls1.2[+R] | tls1.3[+pad-to-N|+pad-random-N|+R] | quic[+fixed-N|+pad-full-N|+pad-random-N+K], R = reports-pad-N|reports-split-N|reports-compress-P")
		shardSpec = flag.String("shard", "", "generate one shard of a partitioned corpus: index/count (e.g. 0/4)")
		merge     = flag.Bool("merge", false, "merge shard directories (positional arguments) into -out")
	)
	flag.Parse()

	if *merge {
		if *out == "" {
			fatal(fmt.Errorf("-merge needs -out"))
		}
		dirs := flag.Args()
		if len(dirs) == 0 {
			fatal(fmt.Errorf("-merge needs shard directories as positional arguments"))
		}
		man, err := dataset.MergeShards(*out, *csv, dirs...)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("merged %d shards into %s (%d points, seed %d, %s)\n",
			len(dirs), *out, len(man.Points), man.Seed, man.Wire)
		return
	}

	w, err := session.ParseWire(*wireSpec)
	if err != nil {
		fatal(err)
	}
	var shard dataset.Shard
	if *shardSpec != "" {
		if shard, err = dataset.ParseShard(*shardSpec); err != nil {
			fatal(err)
		}
	}
	cfg := dataset.Config{
		N: *n, Seed: *seed, Workers: *workers,
		Wire: w, Shard: shard,
	}

	if *out == "" {
		// Table only: stream lean sessions (no payload materialization)
		// and keep just the attribute columns.
		cfg.Lean = true
		var points []dataset.Point
		if err := dataset.Stream(cfg, func(p dataset.Point) error {
			p.Trace.Release()
			points = append(points, p)
			return nil
		}); err != nil {
			fatal(err)
		}
		fmt.Println((&dataset.Dataset{Points: points, Config: cfg}).TableI())
		return
	}

	man, points, err := dataset.GenerateTo(cfg, *out, *csv)
	if err != nil {
		fatal(err)
	}
	if man.Shard == "" {
		fmt.Println((&dataset.Dataset{Points: points, Config: cfg}).TableI())
		fmt.Printf("wrote %d sessions to %s\n", len(points), *out)
	} else {
		fmt.Printf("wrote shard %s of the %d-point corpus to %s (%d sessions); combine with wmdataset -merge\n",
			man.Shard, man.N, *out, len(points))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wmdataset:", err)
	os.Exit(1)
}
