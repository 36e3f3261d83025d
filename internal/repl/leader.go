// Package repl is the leader/follower replication layer over the serving
// stack: a leader exposes its mutation history (internal/wal) and state
// (internal/persist) over two HTTP endpoints, and any number of followers
// tail the change feed, applying each burst with serve.Server.Replay — the
// checks, mutation code and incremental rebuild the leader's writes took,
// and the path a restarting leader's recovery takes through its own log —
// so a follower's snapshots are bit-identical to the leader's at every
// version, and `/topk`, `/score` and `/stats` scale horizontally by adding
// replicas.
//
// The protocol is two endpoints, zero dependencies:
//
//	GET /repl/changes?from=<version>   long-poll; streams the wal frames, as
//	                                   Append stored them, of every burst
//	                                   past <version>, 204 when caught
//	                                   up, 410 Gone when <version> is behind
//	                                   the log horizon (fetch a snapshot)
//	GET /repl/snapshot?chunked=1       streams the persist codec (the same
//	    [&offset=N&version=V]          bytes a disk checkpoint writes),
//	                                   framed once per version into CRC'd,
//	                                   gzipped chunks resumable at raw
//	                                   offset N (409 when V moved; 400
//	                                   without chunked=1)
//	GET /repl/status                   served by followers: applied version,
//	                                   last seen leader version, lag, and
//	                                   bootstrap progress — the read-router's
//	                                   health probe
//
// Consistency model: followers are sequentially consistent with the leader's
// burst history and eventually current — a read hitting a follower may see a
// slightly older version (stamped on every response), never a torn or
// reordered one.
package repl

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"domainnet/internal/bipartite"
	"domainnet/internal/lake"
	"domainnet/internal/obs"
	"domainnet/internal/persist"
	"domainnet/internal/serve"
	"domainnet/internal/wal"
)

// VersionHeader carries the version a replication response was produced at.
// It is the same header the serving layer stamps on every read response.
const VersionHeader = serve.VersionHeader

// Headers of the chunked snapshot protocol.
const (
	// SnapshotSizeHeader carries the raw (uncompressed, unframed) snapshot
	// byte count, so a resuming follower knows when it has everything.
	SnapshotSizeHeader = "X-Domainnet-Snapshot-Size"
	// SnapshotChunkedHeader marks a response body framed with the persist
	// chunk codec. Every snapshot answer carries it; a follower refuses a
	// 200 without it.
	SnapshotChunkedHeader = "X-Domainnet-Snapshot-Chunked"
)

// PollTimeout bounds how long /repl/changes holds an idle long-poll before
// answering 204; followers re-poll immediately, so the value trades
// connection churn against how long a dead leader pins follower requests.
const PollTimeout = 25 * time.Second

// tailRing bounds the in-memory ring of recent commits a leader keeps so
// that followers at (or near) the tip are fed without touching the log's
// segment files — the steady-state poll costs one mutex and a slice copy,
// not a disk scan per commit per follower.
const tailRing = 256

// Leader publishes a server's mutation history to followers. Create with
// NewLeader, wire OnCommit (and Stats, as Replication) into serve.Options,
// then Attach to the server. It long-polls for PollTimeout, keeps the last
// 256 commits in memory, and serves its snapshot as one gzip chunk stream
// per version, cut at persist.DefaultChunkBytes.
type Leader struct {
	log *wal.Log
	srv *serve.Server
	// Tests shrink these to run fast; zero means PollTimeout, tailRing and
	// persist.DefaultChunkBytes.
	pollTimeout time.Duration
	tailCap     int
	chunkBytes  int

	mu   sync.Mutex
	ch   chan struct{} // closed and replaced on every commit (broadcast)
	tail []tailEntry   // ring of the most recent commits, oldest first

	// snapMu guards one version's marshaled bytes and their gzip chunk
	// stream, built by the first request at that version while concurrent
	// joiners wait; a new version replaces both.
	snapMu     sync.Mutex
	snapVer    uint64
	snapRaw    []byte
	snapStream *persist.ChunkStream

	// Encode costs, reported by Stats.
	marshalNS obs.Hist
	frameNS   obs.Hist
}

// LeaderStats is the leader's replication section of /metrics (wire Stats
// into serve.Options.Replication): how many snapshot versions it encoded for
// joining followers, how long each Marshal took, and how long each chunk
// framing took (one per version, compression included). Both run under the
// snapshot lock, so every joiner at a new version waits for them.
type LeaderStats struct {
	Encodes int64            `json:"snapshot_encodes" prom:"snapshot_encodes_total"`
	Marshal obs.HistSnapshot `json:"snapshot_marshal" prom:"snapshot_marshal_seconds"`
	Frame   obs.HistSnapshot `json:"snapshot_frame" prom:"snapshot_frame_seconds"`
}

// Stats reports the leader's snapshot encode counters; see LeaderStats.
func (ld *Leader) Stats() LeaderStats {
	marshal := ld.marshalNS.Snapshot()
	return LeaderStats{Encodes: marshal.Count, Marshal: marshal, Frame: ld.frameNS.Snapshot()}
}

// tailEntry is one ring slot: the burst's version stamps plus its frame
// bytes, encoded once at commit time so every follower poll that hits the
// ring is a plain byte-slice write, not a re-encoding of the burst's tables.
type tailEntry struct {
	prev, ver uint64
	frame     []byte
}

// NewLeader returns a leader over the given write-ahead log.
func NewLeader(log *wal.Log) *Leader {
	return &Leader{log: log, ch: make(chan struct{})}
}

// OnCommit is the server's write-ahead hook (serve.Options.OnCommit): it
// durably appends the burst to the WAL before the lake applies it, then
// wakes every long-polling follower. An append error aborts the burst.
func (ld *Leader) OnCommit(m serve.Mutation) error {
	frame, err := ld.log.Append(&m)
	if err != nil {
		return err
	}
	cache := ld.tailCap
	if cache <= 0 {
		cache = tailRing
	}
	entry := tailEntry{prev: m.PrevVersion, ver: m.Version, frame: frame}
	ld.mu.Lock()
	ld.tail = append(ld.tail, entry)
	if len(ld.tail) > cache {
		// Copy down instead of re-slicing so the dropped entries' frames
		// do not stay reachable through the backing array.
		n := copy(ld.tail, ld.tail[len(ld.tail)-cache:])
		clear(ld.tail[n:])
		ld.tail = ld.tail[:n]
	}
	close(ld.ch)
	ld.ch = make(chan struct{})
	ld.mu.Unlock()
	return nil
}

// fromTail serves the change feed's hot path from the in-memory ring,
// returning the pre-encoded frames past from and the version of the last
// one. ok is false when from predates the ring (or misses a burst boundary
// inside it): the caller falls back to the log, whose chain verification
// produces the right answer — more history, ErrGap, or a chain-break error.
func (ld *Leader) fromTail(from uint64) (frames [][]byte, last uint64, ok bool) {
	ld.mu.Lock()
	defer ld.mu.Unlock()
	if len(ld.tail) == 0 {
		return nil, 0, false
	}
	if from >= ld.tail[len(ld.tail)-1].ver {
		return nil, from, true // caught up; park on the commit signal
	}
	if from < ld.tail[0].prev {
		return nil, 0, false
	}
	for i := range ld.tail {
		if ld.tail[i].prev == from {
			for _, e := range ld.tail[i:] {
				frames = append(frames, e.frame)
				last = e.ver
			}
			return frames, last, true
		}
	}
	return nil, 0, false
}

// commitSignal returns a channel that is closed by the next commit. Grab it
// before checking the log so a commit between the check and the wait cannot
// be missed.
func (ld *Leader) commitSignal() <-chan struct{} {
	ld.mu.Lock()
	defer ld.mu.Unlock()
	return ld.ch
}

// Attach mounts the replication endpoints on the server. Call once, before
// the server starts receiving traffic. The endpoints register through the
// server's instrumentation, so feed and bootstrap traffic shows up in
// /metrics (repl_changes, repl_snapshot) next to the read endpoints.
func (ld *Leader) Attach(s *serve.Server) {
	ld.srv = s
	s.HandleInstrumented("GET /repl/changes", "repl_changes", ld.handleChanges)
	s.HandleInstrumented("GET /repl/snapshot", "repl_snapshot", ld.handleSnapshot)
}

// handleChanges serves the change feed: every burst past ?from=, as wal
// frames. With nothing to send it parks until a commit lands or the poll
// timeout elapses (204).
func (ld *Leader) handleChanges(w http.ResponseWriter, r *http.Request) {
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil {
		http.Error(w, "missing or invalid from parameter", http.StatusBadRequest)
		return
	}
	// A follower claiming a version ahead of everything this leader ever
	// committed can only mean the leader lost state (wiped WAL + snapshot)
	// and restarted with a fresh history. Parking such a follower on the
	// feed would later hand it deltas from an unrelated history whose
	// version stamps happen to line up — silent divergence. Send it back to
	// the snapshot instead. The WAL's newest version is checked first: a
	// burst is fed to followers the instant it commits, marginally before
	// the leader's own serve version advances.
	ahead := from > ld.srv.Version()
	if _, last, ok := ld.log.Bounds(); ok && from <= last {
		ahead = false
	}
	if ahead {
		http.Error(w, fmt.Sprintf("version %d is ahead of this leader's history; re-bootstrap from /repl/snapshot", from),
			http.StatusConflict)
		return
	}
	timeout := ld.pollTimeout
	if timeout <= 0 {
		timeout = PollTimeout
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		signal := ld.commitSignal()
		// A caught-up follower (the steady state) parks on the commit
		// signal without touching the ring or the log: after a leader
		// restart the ring is empty, and falling through to a disk read
		// here would rescan the tail segment once per poll per follower
		// for as long as no writes arrive. But "the log has nothing past
		// from" only means caught up when from has also reached the served
		// version — an emptied or swapped WAL directory behind a still-
		// advanced leader is an unbridgeable gap, and parking the follower
		// would leave it serving stale data with no resync.
		if _, last, ok := ld.log.Bounds(); !ok || from >= last {
			if from < ld.srv.Version() {
				http.Error(w, fmt.Sprintf("%v (need version %d, log is empty past %d)", wal.ErrGap, from, from),
					http.StatusGone)
				return
			}
			select {
			case <-signal:
				continue
			case <-deadline.C:
				// The version stamp on an empty poll is what lets followers
				// report accurate lag (they are, by construction, caught up).
				w.Header().Set(VersionHeader, strconv.FormatUint(ld.srv.Version(), 10))
				w.WriteHeader(http.StatusNoContent)
				return
			case <-r.Context().Done():
				return
			}
		}
		frames, last, ok := ld.fromTail(from)
		if !ok {
			// Past the ring: send the log's frames as stored.
			frames, last, err = ld.log.ReadFrames(from)
			switch {
			case errors.Is(err, wal.ErrGap):
				// The history bridging the follower's version is truncated;
				// only a full snapshot can help.
				http.Error(w, err.Error(), http.StatusGone)
				return
			case err != nil:
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
		}
		if len(frames) > 0 {
			w.Header().Set("Content-Type", "application/x-domainnet-changes")
			w.Header().Set(VersionHeader, strconv.FormatUint(last, 10))
			for _, frame := range frames {
				if _, err := w.Write(frame); err != nil {
					return // follower went away
				}
			}
			return
		}
		select {
		case <-signal:
		case <-deadline.C:
			w.Header().Set(VersionHeader, strconv.FormatUint(ld.srv.Version(), 10))
			w.WriteHeader(http.StatusNoContent)
			return
		case <-r.Context().Done():
			return
		}
	}
}

// snapshot returns the persist codec bytes of the leader's published state
// and their gzip chunk stream, encoding and framing at most once per
// version: the marshal reads the published snapshot's frozen lake
// (Checkpoint), so the bytes are a consistent burst-boundary snapshot while
// writes go on, and repeat requests at the same version — a fleet
// bootstrapping at once, a follower resuming a torn stream — are served from
// the cached stream. Cached buffers are immutable.
func (ld *Leader) snapshot(chunk int) ([]byte, uint64, *persist.ChunkStream, error) {
	ld.snapMu.Lock()
	defer ld.snapMu.Unlock()
	if ld.snapRaw != nil && ld.snapVer == ld.srv.Version() {
		return ld.snapRaw, ld.snapVer, ld.snapStream, nil
	}
	var buf []byte
	var version uint64
	err := ld.srv.Checkpoint(func(l *lake.Lake, g *bipartite.Graph) error {
		version = l.Version()
		start := time.Now()
		buf = persist.Marshal(l, g)
		ld.marshalNS.ObserveDuration(time.Since(start))
		return nil
	})
	if err != nil {
		return nil, 0, nil, err
	}
	start := time.Now()
	cs, err := persist.FrameChunks(buf, chunk)
	if err != nil {
		return nil, 0, nil, err
	}
	ld.frameNS.ObserveDuration(time.Since(start))
	ld.snapRaw, ld.snapVer, ld.snapStream = buf, version, cs
	return buf, version, cs, nil
}

// handleSnapshot streams the leader's full state from the per-version
// cache (snapshot), outside snapMu. The body is framed by the persist chunk
// codec — every chunk independently CRC'd and gzip-compressed, or stored
// when gzip does not shrink it — whatever the request's Accept-Encoding, so
// a request must say chunked=1; anything else gets a 400. The body is not
// one gzip stream, so the response carries no Content-Encoding and stock
// HTTP middleware leaves it alone. ?offset=N&version=V resumes a torn
// transfer at raw offset N by writing the cached stream from chunk N/chunk
// onward. The answer is 409 Conflict when the leader's snapshot has moved
// past V or N does not land on a chunk boundary; the follower restarts from
// offset zero.
func (ld *Leader) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if q.Get("chunked") != "1" {
		http.Error(w, "the snapshot is served only chunked: request it with chunked=1", http.StatusBadRequest)
		return
	}
	chunk := ld.chunkBytes
	if chunk <= 0 {
		chunk = persist.DefaultChunkBytes
	}
	buf, version, stream, err := ld.snapshot(chunk)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(VersionHeader, strconv.FormatUint(version, 10))
	w.Header().Set(SnapshotSizeHeader, strconv.Itoa(len(buf)))
	offset := 0
	if s := q.Get("offset"); s != "" {
		n, err := strconv.ParseUint(s, 10, 31)
		if err != nil {
			http.Error(w, "invalid offset parameter", http.StatusBadRequest)
			return
		}
		offset = int(n)
	}
	if offset != 0 {
		want, err := strconv.ParseUint(q.Get("version"), 10, 64)
		if err != nil {
			http.Error(w, "resuming at an offset requires the version parameter", http.StatusBadRequest)
			return
		}
		if want != version {
			http.Error(w, fmt.Sprintf("snapshot moved from version %d to %d; restart the bootstrap", want, version),
				http.StatusConflict)
			return
		}
		if offset > len(buf) || offset%chunk != 0 {
			http.Error(w, fmt.Sprintf("offset %d is not a chunk boundary of a %d-byte snapshot", offset, len(buf)),
				http.StatusConflict)
			return
		}
	}
	w.Header().Set(SnapshotChunkedHeader, "1")
	w.Write(stream.Wire[stream.Starts[offset/chunk]:]) //nolint:errcheck // the response is already committed
}
