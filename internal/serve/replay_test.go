package serve

import (
	"errors"
	"testing"

	"domainnet/internal/datagen"
	"domainnet/internal/domainnet"
	"domainnet/internal/table"
)

// logged stamps a burst the way the write-ahead log stores it: on top of
// prev, one version per removed and per added table.
func logged(prev uint64, add []*table.Table, remove ...string) *Mutation {
	return &Mutation{PrevVersion: prev, Version: prev + uint64(len(remove)+len(add)), Remove: remove, Add: add}
}

// replayServer is a Figure 1 server whose write-ahead hook fails the test:
// Replay applies bursts that are logged already, so it must never log one.
func replayServer(t *testing.T) *Server {
	t.Helper()
	return NewWithOptions(datagen.Figure1Lake(), domainnet.Config{Measure: domainnet.DegreeBaseline}, Options{
		OnCommit: func(m Mutation) error {
			t.Errorf("Replay called OnCommit with burst %d→%d", m.PrevVersion, m.Version)
			return nil
		},
	})
}

// TestReplayRefusesBadBurst: a burst that does not apply at the lake's
// version, removes a table the lake lacks or adds one it holds is refused
// before any of it is applied. Alone it leaves the version and the publish
// count as they were; after good bursts in the same call it leaves the lake
// at the last good one, published once.
func TestReplayRefusesBadBurst(t *testing.T) {
	s := replayServer(t)
	v := s.Version()
	for _, c := range []struct {
		name string
		m    *Mutation
		want error
	}{
		{"wrong PrevVersion", logged(v+1, []*table.Table{pairTable("a", 0)}), nil},
		{"stamps one version too few", &Mutation{PrevVersion: v, Version: v, Add: []*table.Table{pairTable("a", 0)}}, nil},
		{"unknown removal", logged(v, []*table.Table{pairTable("a", 0)}, "no-such-table"), ErrNotFound},
		{"duplicate add", logged(v, []*table.Table{pairTable("a", 0), pairTable("a", 0)}), ErrConflict},
		{"add of a lake table", logged(v, []*table.Table{table.New("T1").AddColumn("animal", "puma")}), ErrConflict},
		{"invalid table", logged(v, []*table.Table{table.New("empty")}), nil},
	} {
		publishes := s.Publishes()
		err := s.Replay(c.m)
		if err == nil || c.want != nil && !errors.Is(err, c.want) {
			t.Errorf("%s: Replay = %v, want an error (%v)", c.name, err, c.want)
		}
		if s.Version() != v || s.lake.Version() != v || s.Publishes() != publishes {
			t.Errorf("%s: refused burst moved the server to %d, the lake to %d and publishes %d→%d",
				c.name, s.Version(), s.lake.Version(), publishes, s.Publishes())
		}
	}

	publishes := s.Publishes()
	good1 := logged(v, []*table.Table{pairTable("a", 0)})
	good2 := logged(good1.Version, []*table.Table{pairTable("a", 1)}, "a0")
	bad := logged(good2.Version, nil, "a0") // a0 is gone already
	if err := s.Replay(good1, good2, bad); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Replay of two good bursts and a bad one = %v, want ErrNotFound", err)
	}
	if s.Version() != good2.Version || s.Publishes() != publishes+1 {
		t.Errorf("after a refused third burst: version %d (want %d), %d publishes (want %d)",
			s.Version(), good2.Version, s.Publishes(), publishes+1)
	}
}

// TestReplayPublishesOnce: N logged bursts, removals and a same-name
// re-add among them, cost one publish and reach the last burst's version
// without calling OnCommit.
func TestReplayPublishesOnce(t *testing.T) {
	s := replayServer(t)
	publishes := s.Publishes()
	var recs []*Mutation
	v := s.Version()
	for i := range 5 {
		m := logged(v, []*table.Table{pairTable("r", i)})
		if i > 0 {
			m = logged(v, []*table.Table{pairTable("r", i)}, pairTable("r", i-1).Name)
		}
		recs = append(recs, m)
		v = m.Version
	}
	recs = append(recs, logged(v, []*table.Table{pairTable("r", 4)}, "r4")) // remove and re-add one name
	v = recs[len(recs)-1].Version
	if err := s.Replay(recs...); err != nil {
		t.Fatal(err)
	}
	if s.Version() != v {
		t.Errorf("after Replay of %d bursts: version %d, want %d", len(recs), s.Version(), v)
	}
	if got := s.Publishes() - publishes; got != 1 {
		t.Errorf("Replay of %d bursts published %d times, want 1", len(recs), got)
	}
	if err := s.Replay(); err != nil || s.Publishes()-publishes != 1 {
		t.Errorf("Replay of nothing = %v and published %d times in all, want nil and 1", err, s.Publishes()-publishes)
	}
}
