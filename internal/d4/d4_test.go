package d4

import (
	"fmt"
	"testing"

	"domainnet/internal/datagen"
	"domainnet/internal/lake"
)

// twoDomainAttrs builds two clean clusters (animals, cars) with a planted
// homograph JAGUAR appearing once in each.
func twoDomainAttrs() []lake.Attribute {
	return lake.NewAttributes([]lake.Spec{
		{ID: "zoo.name", Values: []string{"JAGUAR", "LEMUR", "PANDA", "TIGER"}},
		{ID: "risk.animal", Values: []string{"JAGUAR", "LEMUR", "PANDA", "PUMA"}},
		{ID: "cars.make", Values: []string{"FIAT", "JAGUAR", "TOYOTA", "VOLVO"}},
		{ID: "dealers.make", Values: []string{"FIAT", "JAGUAR", "OPEL", "TOYOTA"}},
	})
}

func TestRunDiscoverSeparateDomains(t *testing.T) {
	res := Run(twoDomainAttrs())
	if len(res.Domains) != 2 {
		t.Fatalf("core domains = %d, want 2 (animals, cars)", len(res.Domains))
	}
	if res.CoveredColumns != 4 {
		t.Errorf("covered = %d, want 4", res.CoveredColumns)
	}
}

func TestHomographDetectedOnBalancedSupport(t *testing.T) {
	res := Run(twoDomainAttrs())
	homs := res.Homographs()
	if !homs["JAGUAR"] {
		t.Error("JAGUAR (balanced 2-2 support) should be detected")
	}
	for _, v := range []string{"PANDA", "FIAT", "TOYOTA", "LEMUR"} {
		if homs[v] {
			t.Errorf("%s misdetected as homograph", v)
		}
	}
}

func TestPopularMeaningHidesSkewedHomograph(t *testing.T) {
	// SKEW appears in three animal columns and one car column: D4's
	// popular-meaning heuristic assigns it only to animals (the behaviour
	// the paper blames for D4's recall loss).
	attrs := lake.NewAttributes([]lake.Spec{
		{ID: "a.0", Values: []string{"LEMUR", "PANDA", "SKEW", "TIGER"}},
		{ID: "a.1", Values: []string{"LEMUR", "PANDA", "SKEW", "ZEBRA"}},
		{ID: "a.2", Values: []string{"LEMUR", "PANDA", "SKEW", "OKAPI"}},
		{ID: "c.0", Values: []string{"FIAT", "OPEL", "SKEW", "TOYOTA"}},
		{ID: "c.1", Values: []string{"FIAT", "OPEL", "TOYOTA", "VOLVO"}},
	})
	res := Run(attrs)
	if len(res.Domains) != 2 {
		t.Fatalf("domains = %d, want 2", len(res.Domains))
	}
	if res.Homographs()["SKEW"] {
		t.Error("SKEW (3-1 support) should be hidden by the popular-meaning heuristic")
	}
	// But it still produces a mixed local domain around the car column.
	if res.MixedDomains == 0 {
		t.Error("expected a mixed domain around the minority occurrence")
	}
}

func TestNumericColumnsSkipped(t *testing.T) {
	attrs := lake.NewAttributes([]lake.Spec{
		{ID: "n.0", Values: []string{"1", "2", "3", "4"}},
		{ID: "n.1", Values: []string{"2", "3", "4", "5"}},
		{ID: "s.0", Values: []string{"AAA", "BBB", "CCC"}},
		{ID: "s.1", Values: []string{"AAA", "BBB", "DDD"}},
	})
	res := Run(attrs)
	for _, d := range res.Domains {
		for _, c := range d.Columns {
			if c < 2 {
				t.Errorf("numeric column %d clustered into a domain", c)
			}
		}
	}
	if res.CoveredColumns != 2 {
		t.Errorf("covered = %d, want 2 (string columns only)", res.CoveredColumns)
	}
}

func TestSingleColumnClustersAreNotDomains(t *testing.T) {
	// A column sharing nothing with anyone is not a discovered domain
	// (mirrors D4 covering only 14/39 SB columns).
	attrs := lake.NewAttributes([]lake.Spec{
		{ID: "a.0", Values: []string{"AAA", "BBB"}},
		{ID: "a.1", Values: []string{"AAA", "BBB"}},
		{ID: "lonely.0", Values: []string{"XXX", "YYY", "ZZZ"}},
	})
	res := Run(attrs)
	if len(res.Domains) != 1 {
		t.Fatalf("domains = %d, want 1", len(res.Domains))
	}
	if res.CoveredColumns != 2 {
		t.Errorf("covered = %d, want 2", res.CoveredColumns)
	}
}

func TestMixedDomainsGrowWithInjectedHomographs(t *testing.T) {
	// The Figure 10 mechanism: more cross-domain values -> more mixed local
	// domains -> larger NumDomains.
	base := func(nHoms int) []lake.Attribute {
		attrs := []lake.Spec{}
		for d := 0; d < 6; d++ {
			for k := 0; k < 2; k++ {
				vals := []string{}
				for i := 0; i < 30; i++ {
					vals = append(vals, fmt.Sprintf("D%dV%02d", d, i))
				}
				attrs = append(attrs, lake.Spec{ID: fmt.Sprintf("t%d.c%d", d, k), Values: vals})
			}
		}
		// Inject homographs bridging domain pairs (i, i+1).
		for h := 0; h < nHoms; h++ {
			name := fmt.Sprintf("INJ%02d", h)
			a := (h * 2) % 12
			b := (a + 2) % 12
			attrs[a].Values = append(attrs[a].Values, name)
			attrs[b].Values = append(attrs[b].Values, name)
		}
		return lake.NewAttributes(attrs)
	}
	prev := -1
	for _, n := range []int{0, 2, 4, 6} {
		res := Run(base(n))
		if prev >= 0 && res.NumDomains() < prev {
			t.Errorf("NumDomains decreased from %d to %d when injecting %d homographs",
				prev, res.NumDomains(), n)
		}
		prev = res.NumDomains()
	}
	if r0, r6 := Run(base(0)), Run(base(6)); r6.NumDomains() <= r0.NumDomains() {
		t.Errorf("injection did not grow domain count: %d -> %d", r0.NumDomains(), r6.NumDomains())
	}
}

func TestDomainsPerColumnStats(t *testing.T) {
	attrs := twoDomainAttrs()
	res := Run(attrs)
	if res.MaxDomainsPerColumn < 2 {
		t.Errorf("max domains per column = %d, want >= 2 (JAGUAR bridges)", res.MaxDomainsPerColumn)
	}
	if res.AvgDomainsPerColumn < 1 {
		t.Errorf("avg domains per column = %v, want >= 1", res.AvgDomainsPerColumn)
	}
}

func TestRankedCandidatesOrder(t *testing.T) {
	res := Run(twoDomainAttrs())
	cands := res.RankedCandidates()
	if len(cands) == 0 || cands[0] != "JAGUAR" {
		t.Errorf("candidates = %v, want JAGUAR first", cands)
	}
}

func TestRunOnSB(t *testing.T) {
	sb := datagen.NewSB(1)
	res := Run(sb.Lake.Attributes())
	if len(res.Domains) < 5 {
		t.Errorf("SB core domains = %d, want >= 5 (city, name, animal, ...)", len(res.Domains))
	}
	homs := res.Homographs()
	truth := sb.HomographSet()
	hits := 0
	for v := range homs {
		if truth[v] {
			hits++
		}
	}
	if hits < 10 {
		t.Errorf("D4 found only %d true SB homographs", hits)
	}
	// D4 must find *some but not most* — it is the weaker baseline.
	if hits > 50 {
		t.Errorf("D4 found %d/55 — too good for the baseline narrative, check the popular-meaning heuristic", hits)
	}
}

func TestEmptyAndDegenerateInputs(t *testing.T) {
	if res := Run(nil); res.NumDomains() != 0 {
		t.Error("nil input should yield no domains")
	}
	res := Run(lake.NewAttributes([]lake.Spec{{ID: "one", Values: []string{"A"}}}))
	if res.NumDomains() != 0 || res.CoveredColumns != 0 {
		t.Error("single column cannot form a domain")
	}
}

func TestOverlapCoefficient(t *testing.T) {
	cases := []struct {
		a, b []string
		want float64
	}{
		{[]string{"A", "B"}, []string{"A", "B"}, 1},
		{[]string{"A", "B"}, []string{"C", "D"}, 0},
		{[]string{"A", "B", "C", "D"}, []string{"A", "B"}, 1},
		{[]string{"A", "B", "C", "D"}, []string{"A", "X"}, 0.5},
		{nil, []string{"A"}, 0},
	}
	for i, c := range cases {
		if got := overlapCoefficient(c.a, c.b); got != c.want {
			t.Errorf("case %d: got %v, want %v", i, got, c.want)
		}
	}
}

func TestNumericShare(t *testing.T) {
	if got := numericShare([]string{"1", "2.5", "1,000", "abc"}); got != 0.75 {
		t.Errorf("numericShare = %v, want 0.75", got)
	}
	if got := numericShare(nil); got != 0 {
		t.Errorf("empty numericShare = %v", got)
	}
}

func TestUnionFind(t *testing.T) {
	uf := newUnionFind(5)
	uf.union(0, 1)
	uf.union(3, 4)
	if uf.find(0) != uf.find(1) || uf.find(3) != uf.find(4) {
		t.Error("union failed")
	}
	if uf.find(0) == uf.find(3) {
		t.Error("separate sets merged")
	}
	uf.union(1, 3)
	if uf.find(0) != uf.find(4) {
		t.Error("transitive union failed")
	}
}

// overlapCoefficient computes |A∩B| / min(|A|,|B|) over sorted slices.
func overlapCoefficient(a, b []string) float64 {
	_, coeff := overlapStats(a, b)
	return coeff
}
