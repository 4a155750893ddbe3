// The benchmark is a module of its own so that it builds from the files
// under benchmark/ plus whatever REX source tree sits one directory up:
// the driver can lay this directory over another commit's checkout and
// measure that commit with identical benchmark code.
module github.com/rex-data/rex/benchmark

go 1.23

require github.com/rex-data/rex v0.0.0

replace github.com/rex-data/rex => ../
