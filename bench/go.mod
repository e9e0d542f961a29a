// The benchmark is a module of its own so that the repository's tier-1
// `go build ./... && go test ./...` never compiles or runs it. Its module
// path sits under the parent's, which is what lets it import the parent's
// internal packages; the replace directive pins the parent to this checkout.
module github.com/hpcclab/taskdrop/bench

go 1.24

require github.com/hpcclab/taskdrop v0.0.0

replace github.com/hpcclab/taskdrop => ../
