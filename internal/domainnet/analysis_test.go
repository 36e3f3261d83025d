package domainnet

import (
	"testing"

	"domainnet/internal/bipartite"
	"domainnet/internal/datagen"
	"domainnet/internal/lake"
	"domainnet/internal/table"
)

// analysisLake builds two semantic types with a genuine homograph (JAGUAR,
// broad support on both sides) and a misplaced value (MANITOBA HYDRO, a
// company name appearing once in a street column).
func analysisLake(t *testing.T) *lake.Lake {
	t.Helper()
	l := lake.New("analysis")
	l.MustAdd(table.New("zoo").
		AddColumn("animal", "Jaguar", "Lemur", "Panda", "Tiger", "Zebra"))
	l.MustAdd(table.New("risk").
		AddColumn("animal", "Jaguar", "Lemur", "Panda", "Okapi", "Zebra"))
	l.MustAdd(table.New("cars").
		AddColumn("make", "Jaguar", "Civic", "Corolla", "Golf", "Polo"))
	l.MustAdd(table.New("dealers").
		AddColumn("make", "Jaguar", "Civic", "Corolla", "Polo", "Yaris"))
	l.MustAdd(table.New("companies").
		AddColumn("name", "Manitoba Hydro", "Acme Power", "Globex", "Initech", "Hooli"))
	l.MustAdd(table.New("utilities").
		AddColumn("name", "Manitoba Hydro", "Acme Power", "Globex", "Initech", "Umbrella"))
	l.MustAdd(table.New("addresses").
		AddColumn("street", "Main Street", "Oak Avenue", "Manitoba Hydro", "Elm Drive", "Pine Road").
		AddColumn("street2", "Main Street", "Oak Avenue", "Maple Lane", "Elm Drive", "Pine Road"))
	return l
}

func TestAnalyzeMeanings(t *testing.T) {
	d := New(analysisLake(t), Config{Measure: BetweennessExact})
	a := d.Analyze(1)
	p, ok := a.Profile("JAGUAR")
	if !ok {
		t.Fatal("JAGUAR missing")
	}
	if p.Meanings != 2 {
		t.Errorf("JAGUAR meanings = %d, want 2", p.Meanings)
	}
	// Both meanings have two attributes of support: not an error pattern.
	if p.LikelyError {
		t.Error("JAGUAR (2+2 support) misflagged as error")
	}
	if p.DominantShare != 0.5 {
		t.Errorf("JAGUAR dominant share = %v, want 0.5", p.DominantShare)
	}
}

func TestAnalyzeFlagsMisplacedValue(t *testing.T) {
	d := New(analysisLake(t), Config{Measure: BetweennessExact})
	a := d.Analyze(1)
	p, ok := a.Profile("MANITOBA HYDRO")
	if !ok {
		t.Fatal("MANITOBA HYDRO missing")
	}
	if p.Meanings != 2 {
		t.Fatalf("meanings = %d, want 2 (company + street)", p.Meanings)
	}
	if !p.LikelyError {
		t.Error("misplaced value (2 company attrs + 1 street attr) should be flagged")
	}
	// And it must surface among the error candidates of the top ranking.
	found := false
	for _, c := range a.ErrorCandidates(10) {
		if c.Value == "MANITOBA HYDRO" {
			found = true
		}
	}
	if !found {
		t.Error("MANITOBA HYDRO not among ErrorCandidates(10)")
	}
}

func TestAnalyzeUnambiguousValue(t *testing.T) {
	d := New(analysisLake(t), Config{Measure: BetweennessExact})
	a := d.Analyze(1)
	p, ok := a.Profile("PANDA")
	if !ok {
		t.Fatal("PANDA missing")
	}
	if p.Meanings != 1 || p.LikelyError || p.DominantShare != 1 {
		t.Errorf("PANDA profile = %+v, want single clean meaning", p)
	}
}

func TestAnalyzeMissingValue(t *testing.T) {
	d := New(analysisLake(t), Config{Measure: DegreeBaseline})
	a := d.Analyze(1)
	if _, ok := a.Profile("NOPE"); ok {
		t.Error("missing value should report ok=false")
	}
}

func TestTopProfilesAlignWithRanking(t *testing.T) {
	d := New(analysisLake(t), Config{Measure: BetweennessExact})
	a := d.Analyze(1)
	profiles := a.TopProfiles(3)
	top := d.TopK(3)
	if len(profiles) != len(top) {
		t.Fatalf("profiles = %d, top = %d", len(profiles), len(top))
	}
	for i := range profiles {
		if profiles[i].Value != top[i].Value {
			t.Errorf("profile %d = %s, ranking has %s", i, profiles[i].Value, top[i].Value)
		}
	}
}

func TestMeaningCountsMatchTable1OnSB(t *testing.T) {
	// SB homographs all have exactly two meanings; the community estimate
	// should recover 2 for a clear majority and should rarely exceed 3.
	sb := datagen.NewSB(1)
	g := bipartite.FromLake(sb.Lake, bipartite.Options{})
	d := FromGraph(g, Config{Measure: DegreeBaseline})
	a := d.Analyze(1)
	meanings := a.MeaningCounts()
	truth := sb.HomographSet()
	exact2 := 0
	total := 0
	for u := 0; u < g.NumValues(); u++ {
		if !truth[g.Value(int32(u))] {
			continue
		}
		total++
		if meanings[u] == 2 {
			exact2++
		}
	}
	if total != 55 {
		t.Fatalf("homographs = %d", total)
	}
	if exact2 < 30 {
		t.Errorf("only %d/55 homographs estimated at exactly 2 meanings", exact2)
	}
}

func TestAnalysisCommunitiesAccessors(t *testing.T) {
	d := New(analysisLake(t), Config{Measure: DegreeBaseline})
	a := d.Analyze(1)
	if a.NumCommunities() < 2 {
		t.Errorf("communities = %d, want >= 2 semantic types", a.NumCommunities())
	}
}
