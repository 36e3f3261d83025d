// Package union models the unionability ground truth of the Table Union
// Search benchmark (paper §4.2) and the homograph-injection protocol of the
// TUS-I variant (§4.3).
//
// Attributes carry a union-class id; two attributes are unionable exactly
// when their classes match. Definition 2 then labels a value a homograph iff
// it appears in two attributes of different classes.
package union

import (
	"fmt"
	"sort"

	"domainnet/internal/lake"
)

// GroundTruth pairs a lake's attributes with their union classes.
// ClassOf[i] is the union class of Attrs[i]; class ids are opaque ints.
type GroundTruth struct {
	Attrs   []lake.Attribute
	ClassOf []int
}

// Validate reports structural problems: length mismatch or negative class.
func (gt *GroundTruth) Validate() error {
	if len(gt.Attrs) != len(gt.ClassOf) {
		return fmt.Errorf("union: %d attributes but %d class labels", len(gt.Attrs), len(gt.ClassOf))
	}
	for i, c := range gt.ClassOf {
		if c < 0 {
			return fmt.Errorf("union: attribute %d has negative class %d", i, c)
		}
	}
	return nil
}

// NumClasses reports the number of distinct union classes.
func (gt *GroundTruth) NumClasses() int {
	seen := make(map[int]struct{})
	for _, c := range gt.ClassOf {
		seen[c] = struct{}{}
	}
	return len(seen)
}

// valueClasses returns, per value, the sorted distinct union classes of the
// attributes containing it.
func (gt *GroundTruth) valueClasses() map[string][]int {
	m := make(map[string]map[int]struct{})
	for ai := range gt.Attrs {
		c := gt.ClassOf[ai]
		for _, v := range gt.Attrs[ai].Values() {
			set, ok := m[v]
			if !ok {
				set = make(map[int]struct{}, 1)
				m[v] = set
			}
			set[c] = struct{}{}
		}
	}
	out := make(map[string][]int, len(m))
	for v, set := range m {
		classes := make([]int, 0, len(set))
		for c := range set {
			classes = append(classes, c)
		}
		sort.Ints(classes)
		out[v] = classes
	}
	return out
}

// HomographLabels labels every value per Definition 2: true when the value
// occurs in attributes of at least two different union classes.
func (gt *GroundTruth) HomographLabels() map[string]bool {
	vc := gt.valueClasses()
	out := make(map[string]bool, len(vc))
	for v, classes := range vc {
		out[v] = len(classes) >= 2
	}
	return out
}

// Homographs returns the sorted list of homograph values.
func (gt *GroundTruth) Homographs() []string {
	labels := gt.HomographLabels()
	var out []string
	for v, h := range labels {
		if h {
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

// Meanings reports the number of distinct meanings (union classes) of a
// value; 0 when the value does not occur.
func (gt *GroundTruth) Meanings(value string) int {
	// Computed on demand; callers needing many lookups should use
	// MeaningCounts.
	return gt.MeaningCounts()[value]
}

// MeaningCounts returns the number of distinct union classes per value.
func (gt *GroundTruth) MeaningCounts() map[string]int {
	vc := gt.valueClasses()
	out := make(map[string]int, len(vc))
	for v, classes := range vc {
		out[v] = len(classes)
	}
	return out
}

// RemoveHomographs returns a deep-copied ground truth in which every
// homograph occurrence is rewritten to a class-qualified variant
// ("VALUE#C<class>"), making each variant unambiguous while preserving all
// attribute cardinalities and co-occurrence structure. This mirrors the
// TUS-I construction ("first, we removed all homographs", §4.3) without
// shrinking columns.
func (gt *GroundTruth) RemoveHomographs() *GroundTruth {
	labels := gt.HomographLabels()
	return gt.rewrite(func(ai int, v string) string {
		if labels[v] {
			return fmt.Sprintf("%s#C%d", v, gt.ClassOf[ai])
		}
		return v
	})
}

// rewrite returns a copy of the ground truth whose attribute values are
// renamed by rename (given the attribute index and a value), interned into a
// fresh symbol table. Renames must keep each column's values distinct.
func (gt *GroundTruth) rewrite(rename func(ai int, v string) string) *GroundTruth {
	specs := make([]lake.Spec, len(gt.Attrs))
	for ai := range gt.Attrs {
		src := &gt.Attrs[ai]
		sp := lake.Spec{ID: src.ID, Table: src.Table, Column: src.Column,
			Values: src.Values(), Freqs: make([]int, src.Cardinality())}
		for j, v := range sp.Values {
			sp.Values[j], sp.Freqs[j] = rename(ai, v), int(src.Freqs()[j])
		}
		specs[ai] = sp
	}
	return &GroundTruth{Attrs: lake.NewAttributes(specs), ClassOf: append([]int(nil), gt.ClassOf...)}
}
