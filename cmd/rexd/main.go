// Command rexd is the multi-tenant REX query server: one process owning
// one worker pool (in-process workers, or external rexnode daemons via
// -peers) and one catalog, admitting many concurrent client sessions.
// Clients connect with rex.Open(ctx, rex.WithServer(addr)) and use the
// normal Session API; the server interleaves their queries and
// standing-query rounds fairly on the shared pool and compiles each
// distinct query text once into a cross-session plan cache.
//
// Usage:
//
//	rexd -listen 127.0.0.1:7400 -stats 127.0.0.1:7401 &
//	rexsql -server 127.0.0.1:7400          # or any rex.WithServer client
//	curl -s 127.0.0.1:7401/stats           # plan-cache hits, sessions, ...
//
// With -listen :0 the server picks a free port and announces it on
// stdout as REXD_LISTEN=<addr>.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"github.com/rex-data/rex/internal/server"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7400", "address to serve client sessions on (use :0 for a free port)")
	stats := flag.String("stats", "", "address to serve the /stats HTTP endpoint on (empty: disabled)")
	nodes := flag.Int("nodes", 4, "in-process worker pool size (ignored with -peers)")
	peers := flag.String("peers", "", "comma-separated rexnode daemon addresses (front a distributed pool)")
	dataset := flag.String("dataset", "", "dataset to stage at startup (dbpedia|lineitem|points|galaxy)")
	size := flag.Int("size", 2000, "dataset scale")
	seed := flag.Int64("seed", 1, "dataset seed")
	handlers := flag.String("handlers", "", "delta-handler bundle to register (e.g. sssp)")
	replication := flag.Int("replication", 0, "store replication factor (0 = default)")
	dataDir := flag.String("data-dir", "", "directory for paged spill-to-disk stores (in-process pool only; empty = in-memory)")
	poolPages := flag.Int("buffer-pool-pages", 0, "buffer pool capacity in 8 KiB pages (0 = default)")
	maxSessions := flag.Int("max-sessions", 0, "concurrent client session cap (0 = default 64)")
	maxInflight := flag.Int("max-inflight", 0, "admitted interactive request cap (0 = default 16)")
	maxQueue := flag.Int("max-queue", 0, "admission wait-queue cap (0 = default 64)")
	subPools := flag.Int("sub-pools", 0, "engine sub-pools: concurrently executing queries (0 = default 2; forced 1 with -peers)")
	tenantQuota := flag.Int("tenant-quota", 0, "per-tenant inflight request quota (0 = unlimited)")
	tenantQuotas := flag.String("tenant-quotas", "", "comma-separated tenant=quota overrides (e.g. acme=2,batch=8)")
	quiet := flag.Bool("quiet", false, "suppress per-session log lines")
	flag.Parse()

	quotas, err := parseTenantQuotas(*tenantQuotas)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rexd: %v\n", err)
		os.Exit(2)
	}
	cfg := server.Config{
		Nodes: *nodes, Dataset: *dataset, Size: *size, Seed: *seed,
		Handlers: *handlers, Replication: *replication,
		DataDir: *dataDir, BufferPoolPages: *poolPages,
		MaxSessions: *maxSessions, MaxInflight: *maxInflight, MaxQueue: *maxQueue,
		SubPools: *subPools, TenantQuota: *tenantQuota, TenantQuotas: quotas,
	}
	if *peers != "" {
		cfg.Peers = strings.Split(*peers, ",")
	}
	if !*quiet {
		cfg.LogWriter = os.Stderr
	}
	srv, err := server.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rexd: %v\n", err)
		os.Exit(1)
	}
	ln, err := srv.Listen(*listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rexd: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("REXD_LISTEN=%s\n", ln.Addr())
	if *stats != "" {
		mux := http.NewServeMux()
		mux.Handle("/stats", srv.StatsHandler())
		go func() {
			if err := http.ListenAndServe(*stats, mux); err != nil {
				fmt.Fprintf(os.Stderr, "rexd: stats endpoint: %v\n", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "rexd: shutdown: %v\n", err)
		os.Exit(1)
	}
}

// parseTenantQuotas parses -tenant-quotas: comma-separated tenant=quota
// pairs, each quota a positive integer; nil for the empty string.
func parseTenantQuotas(spec string) (map[string]int, error) {
	if spec == "" {
		return nil, nil
	}
	quotas := map[string]int{}
	for _, kv := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(kv, "=")
		var q int
		if ok {
			_, err := fmt.Sscanf(val, "%d", &q)
			ok = err == nil && q > 0
		}
		if !ok {
			return nil, fmt.Errorf("bad -tenant-quotas entry %q (want tenant=quota)", kv)
		}
		quotas[name] = q
	}
	return quotas, nil
}
