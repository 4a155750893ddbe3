package exec

// ResultRows reads the requestor's result-delta counter for the external
// test package, which drives queries through the public session API.
func ResultRows() int64 { return resultRows.Load() }
