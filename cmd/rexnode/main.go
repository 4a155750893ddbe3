// Command rexnode is the REX worker daemon: one OS process hosting one
// worker node of a multi-process cluster. Start one per node, then point
// a driver (rexbench or rexsql with -transport tcp) at the listen
// addresses; the driver ships each daemon a job description from which it
// builds the plan and loads its data partition (kept for later jobs over
// the same data), and queries run over real TCP links.
//
// Usage:
//
//	rexnode -listen 127.0.0.1:7101 &
//	rexnode -listen 127.0.0.1:7102 &
//	rexbench -transport tcp -peers 127.0.0.1:7101,127.0.0.1:7102
//
// With -listen :0 the daemon picks a free port and announces it on
// stdout as REXNODE_LISTEN=<addr> (how driver auto-spawn finds its
// children).
//
// With -data-dir the daemon's store pages to disk through a buffer pool
// (sized by -buffer-pool-pages) and its active job is persisted: killed
// and restarted on the same address and directory, the daemon restores
// the job and its committed data before announcing the address, so a
// driver can respawn crashed workers mid-query.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/rex-data/rex/internal/job"
	"github.com/rex-data/rex/internal/noded"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7101", "address to listen on (use :0 for a free port)")
	quiet := flag.Bool("quiet", false, "suppress per-job log lines")
	dataDir := flag.String("data-dir", "", "directory for paged store files and durable job state (empty = in-memory)")
	poolPages := flag.Int("buffer-pool-pages", 0, "buffer pool capacity in 8 KiB pages (0 = default)")
	flag.Parse()

	var logw io.Writer = os.Stderr
	if *quiet {
		logw = io.Discard
	}
	n, err := noded.Listen(*listen, logw)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rexnode: %v\n", err)
		os.Exit(1)
	}
	if *dataDir != "" {
		if err := n.UseDataDir(*dataDir, *poolPages); err != nil {
			fmt.Fprintf(os.Stderr, "rexnode: %v\n", err)
			os.Exit(1)
		}
		// Restore before announcing: a respawning driver reads the
		// announcement as "the restored job is being served again".
		if _, err := n.Restore(); err != nil {
			fmt.Fprintf(os.Stderr, "rexnode: restore: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Printf("%s%s\n", job.SpawnPrefix, n.Addr())
	if err := n.Serve(); err != nil {
		fmt.Fprintf(os.Stderr, "rexnode: %v\n", err)
		os.Exit(1)
	}
}
