package repl

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"domainnet/internal/bipartite"
	"domainnet/internal/datagen"
	"domainnet/internal/domainnet"
	"domainnet/internal/lake"
	"domainnet/internal/persist"
	"domainnet/internal/serve"
	"domainnet/internal/table"
	"domainnet/internal/wal"
)

// marshal returns the persist bytes of s's published state.
func marshal(t *testing.T, s *serve.Server) []byte {
	t.Helper()
	var raw []byte
	if err := s.Checkpoint(func(l *lake.Lake, g *bipartite.Graph) error {
		raw = persist.Marshal(l, g)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return raw
}

// topk returns s's /topk body.
func topk(t *testing.T, s *serve.Server) string {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/topk?k=25", nil))
	if rec.Code != 200 {
		t.Fatalf("/topk = %d (%s)", rec.Code, rec.Body)
	}
	return rec.Body.String()
}

// TestRecoveryReplaysLikeAFollower: a leader restarting from a checkpoint
// and its log recovers in process, the way the daemon does — persist
// decode, a server over the snapshot's lake and graph, then every logged
// burst past the checkpoint in one Server.Replay call — and reaches the
// bytes and the ranking of the leader and of a caught-up follower. The
// replayed bursts remove, re-add a removed name in one burst, and batch.
func TestRecoveryReplaysLikeAFollower(t *testing.T) {
	cfg := domainnet.Config{Measure: domainnet.BetweennessExact, KeepSingletons: true}
	walDir := t.TempDir()
	log, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	ld := NewLeader(log)
	ld.pollTimeout = 100 * time.Millisecond
	leader := serve.NewWithOptions(datagen.Figure1Lake(), cfg, serve.Options{OnCommit: ld.OnCommit})
	ld.Attach(leader)
	ts := httptest.NewServer(leader)
	defer ts.Close()
	ctx := context.Background()
	f := newFollower(ts)
	if err := f.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}

	apply := func(add []*table.Table, remove ...string) {
		t.Helper()
		if _, err := leader.Apply(add, remove); err != nil {
			t.Fatal(err)
		}
	}
	animals := func(name string, vals ...string) *table.Table {
		return table.New(name).AddColumn("animal", vals...)
	}
	apply([]*table.Table{animals("cars", "jaguar", "fiat")})
	apply([]*table.Table{animals("zoo", "puma", "jaguar", "lion")})
	checkpoint := marshal(t, leader)
	apply([]*table.Table{animals("cars", "jaguar", "panda", "toyota")}, "cars") // same name, new contents
	apply(nil, "T2")
	apply([]*table.Table{animals("cats", "puma", "lion"), animals("fruit", "apple", "kiwi")})
	apply([]*table.Table{animals("T2", "apple", "jaguar")}, "zoo")

	for f.Version() != leader.Version() {
		if _, err := f.Poll(ctx); err != nil {
			t.Fatal(err)
		}
	}

	sn, err := persist.Unmarshal(checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	recovered := serve.NewWithOptions(sn.Lake, cfg, serve.Options{Graph: sn.Graph})
	defer recovered.Close()
	restarted, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	recs, err := restarted.Replay(recovered.Version())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("the log holds %d bursts past the checkpoint, want 4", len(recs))
	}
	before := recovered.Publishes()
	if err := recovered.Replay(recs...); err != nil {
		t.Fatal(err)
	}
	if n := recovered.Publishes() - before; n != 1 {
		t.Errorf("recovering %d bursts published %d times, want 1", len(recs), n)
	}

	want, wantTop := marshal(t, leader), topk(t, leader)
	for _, c := range []struct {
		name string
		s    *serve.Server
	}{{"recovered", recovered}, {"follower", f.Server()}} {
		if c.s.Version() != leader.Version() {
			t.Fatalf("%s at version %d, leader at %d", c.name, c.s.Version(), leader.Version())
		}
		if got := marshal(t, c.s); !bytes.Equal(got, want) {
			t.Errorf("%s snapshot (%d bytes) differs from the leader's (%d bytes)", c.name, len(got), len(want))
		}
		if got := topk(t, c.s); got != wantTop {
			t.Errorf("%s /topk differs from the leader's:\n%s\nleader:\n%s", c.name, got, wantTop)
		}
	}
}

// TestChangesSendStoredFrames: a follower further behind than the tail
// ring reaches, with the log still bridging it, is fed from the log. The
// body is the frames Append stored, byte for byte, and the follower
// catches up on it.
func TestChangesSendStoredFrames(t *testing.T) {
	leader, ld, ts := newLeader(t)
	ld.tailCap = 2
	ctx := context.Background()
	f := newFollower(ts)
	if err := f.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	from := f.Version()
	var appended []byte
	for i := range 4 {
		addTable(t, leader, fmt.Sprintf("behind%d", i))
		appended = append(appended, ld.tail[len(ld.tail)-1].frame...) // what Append returned
	}
	if got := body(t, fmt.Sprintf("%s/repl/changes?from=%d", ts.URL, from)); got != string(appended) {
		t.Errorf("the change feed sent %d bytes, not the %d bytes of the 4 frames Append stored", len(got), len(appended))
	}
	if n, err := f.Poll(ctx); err != nil || n != 4 || f.Version() != leader.Version() {
		t.Fatalf("Poll = %d, %v, follower at %d; want 4 bursts up to the leader's %d", n, err, f.Version(), leader.Version())
	}
}

// TestRecoverPublishesOnce: a leader recovering a 4-burst log tail from a
// checkpoint applies the tail before its first publish, so it publishes and
// warms once, cancels no warm, and serves the leader's bytes and ranking.
func TestRecoverPublishesOnce(t *testing.T) {
	cfg := domainnet.Config{Measure: domainnet.BetweennessExact, KeepSingletons: true}
	log, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	ld := NewLeader(log)
	leader := serve.NewWithOptions(datagen.Figure1Lake(), cfg, serve.Options{OnCommit: ld.OnCommit})
	defer leader.Close()
	ld.Attach(leader)
	checkpoint := marshal(t, leader)
	for i := range 4 {
		addTable(t, leader, fmt.Sprintf("tail%d", i))
	}

	sn, err := persist.Unmarshal(checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := log.Replay(sn.Lake.Version())
	if err != nil || len(tail) != 4 {
		t.Fatalf("the log holds %d bursts past the checkpoint (%v), want 4", len(tail), err)
	}
	recovered, err := serve.Recover(sn.Lake, cfg, serve.Options{Graph: sn.Graph}, tail)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if got, want := topk(t, recovered), topk(t, leader); got != want {
		t.Errorf("recovered /topk differs from the leader's:\n%s\nleader:\n%s", got, want)
	}
	if got, want := marshal(t, recovered), marshal(t, leader); !bytes.Equal(got, want) {
		t.Errorf("recovered snapshot (%d bytes) differs from the leader's (%d bytes)", len(got), len(want))
	}
	if p, ws := recovered.Publishes(), recovered.WarmStats(); p != 1 || ws.Started != 1 || ws.Cancelled != 0 {
		t.Errorf("recovery published %d times and warmed %+v, want one publish, one warm, none cancelled", p, ws)
	}

	// A tail that does not chain from the checkpoint is refused.
	sn, err = persist.Unmarshal(checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if s, err := serve.Recover(sn.Lake, cfg, serve.Options{Graph: sn.Graph}, tail[1:]); err == nil || s != nil {
		t.Errorf("Recover over a tail with a gap = %v, %v; want no server and an error", s, err)
	}
}
