// Command rexbench regenerates the tables and figures of the REX paper's
// evaluation section (§6), plus a transport suite that runs PageRank,
// SSSP, K-means and a filter + group-by RQL query on a selectable
// transport backend. Each experiment prints the same rows/series the
// paper plots; the count gates in internal/bench's tests hold the
// orderings Figs 3, 4 and 11 exist to show.
//
// Usage:
//
//	rexbench -exp all            # every figure at the default scale
//	rexbench -exp fig6,fig12     # selected figures
//	rexbench -exp fig6 -scale 4  # 4× the default dataset sizes
//
//	rexbench -transport tcp                      # spawn rexnode children, run over sockets
//	rexbench -transport tcp -peers h1:7101,...   # drive already-running rexnode daemons
//
// With -transport tcp the figure experiments are skipped (they measure
// the simulated substrate) and the transport suite runs across real OS
// processes; its printed result hashes must equal an inproc run's.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/rex-data/rex"
	"github.com/rex-data/rex/internal/bench"
	"github.com/rex-data/rex/internal/exec"
	"github.com/rex-data/rex/internal/job"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment ids (fig2..fig12) or 'all'")
	scale := flag.Float64("scale", 1.0, "dataset scale multiplier")
	nodes := flag.Int("nodes", 0, "override cluster size")
	list := flag.Bool("list", false, "list experiments and exit")
	transport := flag.String("transport", "inproc", "transport backend: inproc (goroutine nodes) | tcp (one OS process per node)")
	peers := flag.String("peers", "", "comma-separated rexnode addresses for -transport tcp; spawns local daemons when empty")
	nodeMode := flag.Bool("node", false, "run as a rexnode worker daemon (internal: used by -transport tcp auto-spawn)")
	listen := flag.String("listen", "127.0.0.1:0", "daemon listen address (with -node)")
	flag.Parse()

	if *nodeMode {
		if err := rex.ServeNode(*listen, os.Stderr); err != nil {
			fatalf("%v", err)
		}
		return
	}

	if *list {
		for _, e := range bench.Experiments {
			fmt.Printf("%-8s %s\n", e.ID, e.Desc)
		}
		return
	}

	sc := bench.DefaultScale()
	sc.DBPediaVertices = int(float64(sc.DBPediaVertices) * *scale)
	sc.TwitterVertices = int(float64(sc.TwitterVertices) * *scale)
	sc.GeoBasePoints = int(float64(sc.GeoBasePoints) * *scale)
	sc.LineItemRows = int(float64(sc.LineItemRows) * *scale)
	if *nodes > 0 {
		sc.Nodes = *nodes
	}

	if err := run(sc, *transport, *peers, *exp); err != nil {
		fatalf("%v", err)
	}
}

func run(sc bench.Scale, transport, peers, exp string) error {
	// Pick the transport suite's runner: the in-process engine, or a
	// session over rexnode worker processes (the public rex.Open path).
	var runner bench.Runner
	switch transport {
	case "inproc":
		runner = job.RunInProc
	case "tcp":
		var sess *rex.Session
		var err error
		if peers != "" {
			sess, err = rex.Open(context.Background(), rex.WithTCPPeers(job.ParsePeers(peers)...))
		} else {
			fmt.Printf("spawning %d local rexnode daemons\n", sc.Nodes)
			sess, err = rex.Open(context.Background(), rex.WithAutoSpawn(sc.Nodes))
		}
		if err != nil {
			return err
		}
		defer sess.Close()
		// The peer list, not the default scale, decides the cluster
		// size: keep the suite specs honest.
		sc.Nodes = sess.Nodes()
		runner = func(spec *job.Spec, tune func(*exec.Options)) (*exec.Result, error) {
			return sess.RunWorkload(context.Background(), spec, tune)
		}
	default:
		return fmt.Errorf("unknown transport %q (inproc | tcp)", transport)
	}

	// Figure experiments measure the simulated substrate; they run only
	// in-process. "-exp none" skips them and runs only the transport
	// suite.
	if transport == "inproc" && exp != "none" {
		want := map[string]bool{}
		for _, id := range strings.Split(exp, ",") {
			want[strings.TrimSpace(id)] = true
		}
		ran := 0
		for _, e := range bench.Experiments {
			if !want["all"] && !want[e.ID] {
				continue
			}
			ran++
			start := time.Now()
			if err := e.Run(os.Stdout, sc); err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			fmt.Printf("\n[%s completed in %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
		if ran == 0 {
			return fmt.Errorf("no experiment matches %q (use -list)", exp)
		}
	}

	// The transport suite runs on every backend: identical plans and
	// seeds, so its result hashes are comparable across transports.
	return bench.TransportSuite(os.Stdout, sc, transport, runner)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rexbench: "+format+"\n", args...)
	os.Exit(1)
}
