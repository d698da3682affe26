// The benchmark is a module of its own so that it builds from its own
// directory and the root module's `go build ./... && go test ./...` never
// compiles it. Its import path stays under distknn/, which is what lets the
// layer probes import distknn/internal/... packages.
module distknn/benchmarks

go 1.24

require distknn v0.0.0

replace distknn => ../
