package domainnet

import (
	"sort"

	"domainnet/internal/community"
)

// HomographProfile describes one homograph candidate in depth: its
// centrality score, its community-estimated number of meanings (§6: a
// community represents one meaning), the attribute support per meaning, and
// whether the occurrence pattern looks like a data error rather than a
// genuine lexical homograph.
type HomographProfile struct {
	Value string
	// Score is the detector's centrality score.
	Score float64
	// Meanings is the number of distinct communities among the value's
	// attributes.
	Meanings int
	// Support holds, per meaning community, how many of the value's
	// attributes belong to it, descending. len(Support) == Meanings.
	Support []int
	// DominantShare is Support[0] / ΣSupport: 1.0 means a single meaning.
	DominantShare float64
	// LikelyError flags candidates whose minority meanings are each backed
	// by a single attribute while one meaning dominates — the §6
	// "value placed in the wrong cell" pattern (e.g. an electric company
	// appearing once in a Street Name column).
	LikelyError bool
}

// Analysis couples a detector with two community structures over its graph:
// fine-grained label-propagation communities (the graph view) and coarser
// attribute clusters (the semantic-type view used for meaning counting —
// two columns of one type can form separate graph communities when they
// share only part of a large vocabulary, which would over-count meanings).
type Analysis struct {
	det         *Detector
	communities *community.Result
	clusters    *community.AttrClustering
}

// Analyze runs label propagation and attribute clustering over the
// detector's graph (deterministic under seed) and returns an Analysis for
// meaning and error inspection.
func (d *Detector) Analyze(seed int64) *Analysis {
	res := community.LabelPropagation(d.graph, community.Options{Seed: seed})
	clusters := community.ClusterAttributes(d.graph, 0, 0)
	return &Analysis{det: d, communities: res, clusters: clusters}
}

// NumCommunities reports how many graph communities the lake decomposed into.
func (a *Analysis) NumCommunities() int { return a.communities.NumCommunities }

// Profile builds the homograph profile of one value. ok is false when the
// value is not in the graph.
func (a *Analysis) Profile(value string) (HomographProfile, bool) {
	u, ok := a.det.graph.ValueNode(value)
	if !ok {
		return HomographProfile{}, false
	}
	return a.profileNode(u), true
}

// TopProfiles profiles the detector's k best-ranked candidates.
func (a *Analysis) TopProfiles(k int) []HomographProfile {
	top := a.det.TopK(k)
	out := make([]HomographProfile, 0, len(top))
	for _, s := range top {
		u, ok := a.det.graph.ValueNode(s.Value)
		if !ok {
			continue
		}
		out = append(out, a.profileNode(u))
	}
	return out
}

// ErrorCandidates returns, among the k best-ranked candidates, those whose
// profiles look like misplaced values rather than genuine homographs.
func (a *Analysis) ErrorCandidates(k int) []HomographProfile {
	var out []HomographProfile
	for _, p := range a.TopProfiles(k) {
		if p.LikelyError {
			out = append(out, p)
		}
	}
	return out
}

func (a *Analysis) profileNode(u int32) HomographProfile {
	g := a.det.graph
	p := HomographProfile{Value: g.Value(u), Score: a.det.Scores()[u]}

	counts := map[int32]int{}
	total := 0
	nVal := int32(g.NumValues())
	for _, attr := range g.Neighbors(u) {
		counts[a.clusters.ClusterOf[attr-nVal]]++
		total++
	}
	p.Meanings = len(counts)
	p.Support = make([]int, 0, len(counts))
	for _, c := range counts {
		p.Support = append(p.Support, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(p.Support)))
	if total > 0 {
		p.DominantShare = float64(p.Support[0]) / float64(total)
	}
	// Error pattern: several meanings, one clearly dominant, every minority
	// meaning backed by exactly one attribute. A genuine homograph such as
	// Jaguar tends to have multi-attribute support on both sides.
	if p.Meanings >= 2 && p.Support[0] >= 2 {
		allSingletons := true
		for _, c := range p.Support[1:] {
			if c != 1 {
				allSingletons = false
				break
			}
		}
		p.LikelyError = allSingletons
	}
	return p
}

// MeaningCounts estimates the meanings of every value node, indexed by node
// id (the cluster-count form of the paper's #M column in Table 1).
func (a *Analysis) MeaningCounts() []int {
	return a.clusters.MeaningCounts(a.det.graph)
}
