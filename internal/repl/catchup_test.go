package repl

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"

	"domainnet/internal/serve"
	"domainnet/internal/wal"
)

// behind bootstraps f from the leader and then commits n one-table bursts on
// the leader. It returns the leader's snapshot bytes at every version from
// the bootstrap on.
func behind(t *testing.T, leader *serve.Server, f *Follower, n int) map[uint64][]byte {
	t.Helper()
	if err := f.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	at := map[uint64][]byte{leader.Version(): marshal(t, leader)}
	for i := range n {
		at[addTable(t, leader, fmt.Sprintf("behind%d", i))] = marshal(t, leader)
	}
	return at
}

// TestPollAppliesBacklogOnce: a follower 4 bursts behind applies them with
// one poll, one publish and one warm, and encodes to the leader's bytes.
func TestPollAppliesBacklogOnce(t *testing.T) {
	leader, _, ts := newLeader(t)
	f := newFollower(ts)
	behind(t, leader, f, 4)
	publishes, warms := f.Server().Publishes(), f.Server().WarmStats().Started
	if n, err := f.Poll(context.Background()); err != nil || n != 4 {
		t.Fatalf("Poll = %d, %v; want 4 bursts", n, err)
	}
	if f.Version() != leader.Version() {
		t.Fatalf("follower at %d, leader at %d", f.Version(), leader.Version())
	}
	if p, w := f.Server().Publishes()-publishes, f.Server().WarmStats().Started-warms; p != 1 || w != 1 {
		t.Errorf("4 bursts in one poll cost %d publishes and %d warms, want 1 and 1", p, w)
	}
	if got, want := marshal(t, f.Server()), marshal(t, leader); !bytes.Equal(got, want) {
		t.Errorf("follower snapshot (%d bytes) differs from the leader's (%d bytes)", len(got), len(want))
	}
}

// splitFrames cuts a change-feed body into its frames.
func splitFrames(t *testing.T, body []byte) [][]byte {
	t.Helper()
	var frames [][]byte
	for len(body) > 0 {
		if len(body) < 8 {
			t.Fatalf("%d trailing bytes in the change feed", len(body))
		}
		n := 8 + int(binary.LittleEndian.Uint32(body))
		frames, body = append(frames, body[:n]), body[n:]
	}
	return frames
}

// restamped returns frame's burst stamped one version later, framed as the
// log frames it.
func restamped(t *testing.T, frame []byte) []byte {
	t.Helper()
	rec, err := wal.DecodeRecord(frame[4 : len(frame)-4])
	if err != nil {
		t.Fatal(err)
	}
	rec.PrevVersion++
	rec.Version++
	log, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	out, err := log.Append(rec)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPollAppliesWholeFramesOnce: the first change-feed answer of a
// follower 4 bursts behind is rewritten. Cut mid-frame after 3 whole
// frames, the poll applies those 3 with one publish and returns the stream's
// error; with its 2nd burst stamped a version too far, the poll applies the
// 1st, publishes once and reports divergence. Either way the replica holds
// the leader's bytes at the version it reached, and the next poll, on the
// leader's own answer, catches up.
func TestPollAppliesWholeFramesOnce(t *testing.T) {
	for _, c := range []struct {
		name     string
		rewrite  func(t *testing.T, frames [][]byte) (feed []byte, sent int)
		applied  int
		diverged bool
	}{
		{"torn after 3 whole frames", func(t *testing.T, frames [][]byte) ([]byte, int) {
			feed := bytes.Join(frames, nil)
			return feed, len(feed) - len(frames[3])/2
		}, 3, false},
		{"2nd burst misstamped", func(t *testing.T, frames [][]byte) ([]byte, int) {
			feed := slices.Concat(frames[0], restamped(t, frames[1]), frames[2], frames[3])
			return feed, len(feed)
		}, 1, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			leader, _, ts := newLeader(t)
			f := newFollower(ts)
			at := behind(t, leader, f, 4)
			from, publishes := f.Version(), f.Server().Publishes()
			frames := splitFrames(t, []byte(body(t, fmt.Sprintf("%s/repl/changes?from=%d", ts.URL, from))))
			if len(frames) != 4 {
				t.Fatalf("the change feed holds %d frames, want 4", len(frames))
			}
			feed, sent := c.rewrite(t, frames)
			var polls atomic.Int32
			stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != "/repl/changes" || polls.Add(1) > 1 {
					leader.ServeHTTP(w, r)
					return
				}
				// A short body under a longer Content-Length: the server
				// closes the connection mid-frame.
				w.Header().Set("Content-Length", strconv.Itoa(len(feed)))
				w.Write(feed[:sent]) //nolint:errcheck // the client sees what arrived
			}))
			defer stub.Close()
			f.Leader = stub.URL

			n, err := f.Poll(context.Background())
			if err == nil || errors.Is(err, ErrDiverged) != c.diverged {
				t.Errorf("Poll error = %v, want one with diverged=%v", err, c.diverged)
			}
			if want := from + uint64(c.applied); n != c.applied || f.Version() != want {
				t.Errorf("Poll applied %d bursts up to version %d, want %d up to %d", n, f.Version(), c.applied, want)
			}
			if p := f.Server().Publishes() - publishes; p != 1 {
				t.Errorf("the poll published %d times, want 1", p)
			}
			if !bytes.Equal(marshal(t, f.Server()), at[f.Version()]) {
				t.Errorf("the replica at version %d differs from the leader's bytes there", f.Version())
			}

			if n, err := f.Poll(context.Background()); err != nil || n != 4-c.applied {
				t.Fatalf("the next Poll = %d, %v; want the other %d bursts", n, err, 4-c.applied)
			}
			if f.Version() != leader.Version() || !bytes.Equal(marshal(t, f.Server()), at[leader.Version()]) {
				t.Errorf("the replica at version %d does not hold the leader's bytes at %d", f.Version(), leader.Version())
			}
		})
	}
}
