// Package bench anchors the repository root and documents its layout.
//
// There are two ways to get a number out of the repository. `bash
// benchmark/run.sh` runs the seeded end-to-end workloads of the separate
// benchmark module and gives performance numbers, per workload and per
// layer. `go run ./cmd/experiments` renders the paper's evaluation tables
// and figures (§5); internal/experiments' tests pin each of their quality
// numbers at small scale.
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
