// Package bench anchors the repository root and hosts the benchmark harness
// (bench_test.go, bench_engine_test.go) that regenerates every table and
// figure of the paper's evaluation, plus the machine-readable snapshot
// emitter (benchjson_test.go, opt-in via DOMAINNET_BENCH_JSON=1) that writes
// BENCH_<date>.json with ns/op per pipeline stage.
//
// The library itself lives under internal/; binaries under cmd/; runnable
// examples under examples/.
//
// # Architecture
//
// internal/engine is the execution substrate shared by every layer: the
// Graph view, the single engine.Opts options struct, the Scorer interface,
// the pooled per-worker BFS Arena, and the Parallel shard driver.
// internal/centrality implements the measures as exported Scorer values;
// internal/bipartite builds the DomainNet graph in parallel;
// internal/domainnet dispatches measures through one static table.
//
// # Node numbering
//
// Throughout the repository, graph nodes follow one convention: value nodes
// occupy ids [0, NumValues), attribute nodes occupy
// [NumValues, NumValues+NumAttrs), and — in the tripartite ablation variant
// — row nodes follow after the attributes. Score slices are indexed by node
// id under the same convention; measures defined only on value nodes (the
// LCC family) return slices of length NumValues.
package bench
