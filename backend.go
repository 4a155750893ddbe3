package rex

import (
	"context"
	"fmt"
	"sort"

	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/exec"
	"github.com/rex-data/rex/internal/types"
)

// backend is the deployment a Session drives, chosen once by Open: the
// in-process engine (inprocBackend), rexnode daemons over TCP
// (tcpBackend), or a rexd server connection (serverConn). Every Session,
// Stmt and Subscription method calls it without asking which one it is; a
// call a deployment cannot serve returns that deployment's refusal.
type backend interface {
	nodes() int
	close() error
	// stats fills the deployment-specific part of a Stats snapshot.
	stats(ctx context.Context, st *Stats) error
	catalogVersion() int64

	// local returns the in-process deployment, the only one with a
	// catalog and engine this process can reach; what names the call
	// being refused elsewhere.
	local(what string) (*inprocBackend, error)
	// transport returns the worker transport for failure injection and
	// byte accounting.
	transport(what string) (cluster.Transport, error)

	createTable(name string, schema *types.Schema, partitionKey int) error
	// load and ingest apply base-table data with no subscription live;
	// locked serializes them with the session's queries where needed.
	load(table string, tuples []Tuple, locked lockFunc) error
	ingest(tables map[string][]Delta, locked lockFunc) (*IngestAck, error)

	query(src string, opts Options) (query, error)
	prepare(src string) (statement, error)
	workload(what string, w *Workload, tune func(*Options)) (execution, error)
}

// execution is work a backend has compiled and validated; the session
// starts it once it holds its lock.
type execution interface {
	run(ctx context.Context) (*Result, error) // buffered
	stream(ctx context.Context) (*exec.ResultStream, error)
}

// query is a compiled RQL query: an execution that can also stay resident
// as a standing query.
type query interface {
	execution
	subscribe(ctx context.Context) (standing, error)
}

// statement is a prepared query on its backend.
type statement interface {
	numParams() int
	bind(args []Value, opts Options) (execution, error)
}

// standing is a live standing query: *exec.StandingQuery in-process and
// over TCP, *remoteSub on a rexd server.
type standing interface {
	Stream() *exec.ResultStream
	Rounds() []RoundStats
	Done() <-chan struct{}
	Err() error
	Ingest(ctx context.Context, tables map[string][]types.Delta) (*RoundStats, error)
	IngestAsync(tables map[string][]types.Delta) (*IngestAck, error)
	Close() error
}

// lockFunc runs fn holding the session lock, or fails with
// ErrSessionClosed.
type lockFunc func(fn func() error) error

// loadAsInserts is Load for backends without a bulk path: the tuples
// ingest as insertions.
func loadAsInserts(b backend, table string, tuples []Tuple, locked lockFunc) error {
	if len(tuples) == 0 {
		return nil
	}
	_, err := b.ingest(map[string][]Delta{table: types.Inserts(tuples...)}, locked)
	return err
}

// nonEmpty drops the tables without deltas.
func nonEmpty(batches map[string][]Delta) map[string][]Delta {
	m := make(map[string][]Delta, len(batches))
	for table, deltas := range batches {
		if len(deltas) > 0 {
			m[table] = deltas
		}
	}
	return m
}

// sortedTables lists the tables of a batch in name order.
func sortedTables(tables map[string][]Delta) []string {
	names := make([]string, 0, len(tables))
	for t := range tables {
		names = append(names, t)
	}
	sort.Strings(names)
	return names
}

// checkArity rejects tuples whose width is not the table's.
func checkArity(table string, arity int, tuples ...Tuple) error {
	for _, t := range tuples {
		if len(t) != arity {
			return fmt.Errorf("rex: ingest into %s: tuple %v does not match the %d-column schema", table, t, arity)
		}
	}
	return nil
}

// checkDeltaArity is checkArity over a delta batch, replaced images
// included.
func checkDeltaArity(table string, arity int, deltas []Delta) error {
	for _, d := range deltas {
		old := d.Tup
		if d.Op == types.OpReplace {
			old = d.Old
		}
		if err := checkArity(table, arity, d.Tup, old); err != nil {
			return err
		}
	}
	return nil
}
