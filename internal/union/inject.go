package union

import (
	"fmt"
	"math/rand"
	"sort"
)

// InjectOptions parameterize homograph injection per §4.3.
type InjectOptions struct {
	// Count is the number of homographs to inject (the paper uses 50 for
	// Tables 2–3 and 50–200, plus 5000, for Figure 10).
	Count int
	// Meanings is the number of distinct union classes each injected
	// homograph spans; every replaced value comes from a different class.
	// The paper explores 2..8. Minimum 2.
	Meanings int
	// MinCardinality is the minimum cardinality of an attribute from which
	// a value may be chosen for replacement (the paper's "cardinality of
	// replaced values" threshold, 0..500).
	MinCardinality int
	// Seed drives the random choices; fixed seeds reproduce an injection.
	Seed int64
}

// Injection is the outcome of injecting homographs into a clean lake.
type Injection struct {
	// GT is the modified ground truth (deep copy; the input is untouched).
	GT *GroundTruth
	// Injected holds the injected homograph values ("INJECTEDHOMOGRAPH<i>"),
	// sorted.
	Injected []string
	// Replaced maps each injected value to the original values it replaced,
	// one per meaning.
	Replaced map[string][]string
}

// InjectedSet returns the injected values as a set, the shape eval.HitsAtK
// expects.
func (inj *Injection) InjectedSet() map[string]bool {
	out := make(map[string]bool, len(inj.Injected))
	for _, v := range inj.Injected {
		out[v] = true
	}
	return out
}

// Inject implements the §4.3 protocol: for each of opts.Count homographs it
// selects opts.Meanings values — each a string of at least 3 characters,
// each from a different union class, each appearing only in attributes of
// cardinality >= MinCardinality — and rewrites every occurrence of each
// selected value to the same fresh "INJECTEDHOMOGRAPH<i>" value.
//
// The receiver should be homograph-free (e.g. the result of
// RemoveHomographs); Inject returns an error if a selected value would not
// be unambiguous, or if the lake lacks enough eligible values or classes.
func (gt *GroundTruth) Inject(opts InjectOptions) (*Injection, error) {
	if opts.Count <= 0 {
		return nil, fmt.Errorf("union: inject count must be positive, got %d", opts.Count)
	}
	if opts.Meanings < 2 {
		return nil, fmt.Errorf("union: injected homographs need >= 2 meanings, got %d", opts.Meanings)
	}
	if err := gt.Validate(); err != nil {
		return nil, err
	}

	// Candidate values per class: strings of length >= 3 that occur in at
	// least one attribute of sufficient cardinality and whose occurrences
	// all share one class (unambiguous). The paper's threshold is on "the
	// cardinality of the data values chosen for replacement" — i.e. how
	// many values the replacement will co-occur with — which is governed by
	// the largest column containing the value.
	type occInfo struct {
		classes map[int]struct{}
		maxCard int
	}
	occ := make(map[string]*occInfo)
	for ai := range gt.Attrs {
		card := gt.Attrs[ai].Cardinality()
		c := gt.ClassOf[ai]
		for _, v := range gt.Attrs[ai].Values() {
			info, ok := occ[v]
			if !ok {
				info = &occInfo{classes: map[int]struct{}{}}
				occ[v] = info
			}
			info.classes[c] = struct{}{}
			if card > info.maxCard {
				info.maxCard = card
			}
		}
	}
	byClass := make(map[int][]string)
	for v, info := range occ {
		if len(v) < 3 {
			continue // paper: only replace string values with >= 3 characters
		}
		if len(info.classes) != 1 {
			continue // already ambiguous; not eligible for replacement
		}
		if info.maxCard < opts.MinCardinality {
			continue
		}
		for c := range info.classes {
			byClass[c] = append(byClass[c], v)
		}
	}
	classes := make([]int, 0, len(byClass))
	for c := range byClass {
		sort.Strings(byClass[c])
		classes = append(classes, c)
	}
	sort.Ints(classes)
	if len(classes) < opts.Meanings {
		return nil, fmt.Errorf("union: need %d classes with eligible values, have %d (min cardinality %d)",
			opts.Meanings, len(classes), opts.MinCardinality)
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	used := make(map[string]struct{})
	rewrite := make(map[string]string) // original value -> injected value
	inj := &Injection{Replaced: make(map[string][]string, opts.Count)}

	for i := 0; i < opts.Count; i++ {
		name := fmt.Sprintf("INJECTEDHOMOGRAPH%d", i+1)
		// Pick Meanings distinct classes, then one unused value from each.
		perm := rng.Perm(len(classes))
		picked := make([]string, 0, opts.Meanings)
		for _, ci := range perm {
			if len(picked) == opts.Meanings {
				break
			}
			c := classes[ci]
			v, ok := pickUnused(byClass[c], used, rng)
			if !ok {
				continue
			}
			picked = append(picked, v)
		}
		if len(picked) < opts.Meanings {
			return nil, fmt.Errorf("union: ran out of eligible values injecting homograph %d/%d", i+1, opts.Count)
		}
		for _, v := range picked {
			used[v] = struct{}{}
			rewrite[v] = name
		}
		sort.Strings(picked)
		inj.Replaced[name] = picked
		inj.Injected = append(inj.Injected, name)
	}
	sort.Strings(inj.Injected)

	// Apply the rewrites on a copy. Distinct originals map to distinct
	// injected names, and each selected original is unambiguous (one class),
	// so rewriting cannot introduce duplicates within a column.
	out := gt.rewrite(func(_ int, v string) string {
		if nv, ok := rewrite[v]; ok {
			return nv
		}
		return v
	})
	inj.GT = out
	return inj, nil
}

func pickUnused(candidates []string, used map[string]struct{}, rng *rand.Rand) (string, bool) {
	if len(candidates) == 0 {
		return "", false
	}
	// A few random probes, then linear fallback from a random offset so the
	// picker stays O(1) amortized but never spins forever.
	for probe := 0; probe < 8; probe++ {
		v := candidates[rng.Intn(len(candidates))]
		if _, taken := used[v]; !taken {
			return v, true
		}
	}
	start := rng.Intn(len(candidates))
	for k := 0; k < len(candidates); k++ {
		v := candidates[(start+k)%len(candidates)]
		if _, taken := used[v]; !taken {
			return v, true
		}
	}
	return "", false
}
