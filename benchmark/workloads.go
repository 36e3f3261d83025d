package main

import "domainnet/internal/domainnet"

// workloads maps each workload to its set-up. BENCHMARK.json at the
// repository root records why each one is in the benchmark.
var workloads = map[string]func(cfg config, dir string, tr *tracer) (instance, error){
	"detect_exact":   setupDetect(domainnet.BetweennessExact),
	"detect_sampled": setupDetect(domainnet.BetweennessApprox),
	"read_fleet":     setupFleetWork("read_fleet"),
	"write_fleet":    setupFleetWork("write_fleet"),
	"fresh_exact":    setupFleetWork("fresh_exact"),
	"replica_join":   setupJoin,
}
