// Command vsbench regenerates the tables and figures of the VertexSurge
// paper's evaluation (§6) on the synthetic stand-in datasets.
//
// Usage:
//
//	vsbench -exp all -scale 0.02
//	vsbench -exp fig9 -scale 0.05 -kmax 3
//
// Experiments: table1, fig2b, fig6, fig7, fig8, table2, fig9, ablations,
// cache, all. The cache experiment measures the engine-level
// reachability-matrix cache on repeated queries (cold vs warm).
// Scale 1.0 means the paper's dataset sizes (Twitter2010 at scale 1.0
// needs a very large machine; the default regenerates every shape in
// seconds).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"

	"repro/internal/bench"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vsbench: ")
	var (
		exp     = flag.String("exp", "all", "experiment: table1|fig2b|fig6|fig7|fig8|table2|fig9|ablations|cache|all")
		scale   = flag.Float64("scale", 0.02, "dataset scale relative to Table 1")
		budget  = flag.Int64("budget", 20_000_000, "baseline intermediate-tuple budget (timeout stand-in)")
		workers = flag.Int("workers", 0, "worker count (0 = GOMAXPROCS)")
		kmax    = flag.Int("kmax", 0, "override the experiment's k_max sweep upper bound")
		social  = flag.String("social", "", "comma-separated social datasets for fig6 (default LastFM,Epinions,LDBC-SN-SF100)")
	)
	flag.Parse()

	cfg := bench.Config{Scale: *scale, Budget: *budget, Workers: *workers}
	w := os.Stdout
	// The output opens with a host line so saved bench_results_*.txt files
	// are self-describing.
	fmt.Fprintf(w, "VertexSurge evaluation harness — scale %g, budget %d tuples\n", *scale, *budget)
	fmt.Fprintf(w, "host: %s %s/%s GOMAXPROCS=%d cpus=%d\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU())

	pick := func(def int) int {
		if *kmax > 0 {
			return *kmax
		}
		return def
	}
	var socialList []string
	if *social != "" {
		socialList = strings.Split(*social, ",")
	}

	run := map[string]func() error{
		"table1": func() error {
			rows, err := bench.Table1(cfg)
			if err != nil {
				return err
			}
			bench.PrintTable1(w, cfg, rows)
			return nil
		},
		"fig2b": func() error {
			rows, err := bench.Fig2b(cfg, pick(4))
			if err != nil {
				return err
			}
			bench.PrintFig2b(w, rows)
			return nil
		},
		"fig6": func() error {
			cells, err := bench.Fig6(cfg, socialList)
			if err != nil {
				return err
			}
			bench.PrintFig6(w, cells)
			return nil
		},
		"fig7": func() error {
			rows, err := bench.Fig7(cfg, pick(6))
			if err != nil {
				return err
			}
			bench.PrintFig7(w, rows)
			return nil
		},
		"fig8": func() error {
			rows, err := bench.Fig8(cfg)
			if err != nil {
				return err
			}
			bench.PrintFig8(w, rows)
			return nil
		},
		"table2": func() error {
			rows, err := bench.Table2(cfg, pick(3))
			if err != nil {
				return err
			}
			bench.PrintTable2(w, rows)
			return nil
		},
		"ablations": func() error {
			rows, err := bench.Ablations(cfg)
			if err != nil {
				return err
			}
			bench.PrintAblations(w, rows)
			return nil
		},
		"fig9": func() error {
			rows, err := bench.Fig9(cfg, pick(3))
			if err != nil {
				return err
			}
			bench.PrintFig9(w, rows)
			return nil
		},
		"cache": func() error {
			rows, err := bench.Cache(cfg)
			if err != nil {
				return err
			}
			bench.PrintCache(w, rows)
			return nil
		},
	}

	order := []string{"table1", "fig2b", "fig6", "fig7", "fig8", "table2", "fig9", "ablations", "cache"}
	if *exp != "all" {
		fn, ok := run[*exp]
		if !ok {
			log.Fatalf("unknown experiment %q (want one of %s, all)", *exp, strings.Join(order, ", "))
		}
		if err := fn(); err != nil {
			log.Fatal(err)
		}
		return
	}
	for _, name := range order {
		if err := run[name](); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
	}
}
