package serve

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"domainnet/internal/bipartite"
	"domainnet/internal/datagen"
	"domainnet/internal/domainnet"
	"domainnet/internal/lake"
	"domainnet/internal/table"
)

// contractBound is how long a read, a checkpoint or a writer may take while
// another writer is stalled. The operations themselves take microseconds;
// only a wait on the stalled writer comes near the bound.
const contractBound = 2 * time.Second

// within runs fn on its own goroutine and fails the test unless fn returns
// within contractBound, and returns no error. fn reports through its result,
// not through t, because it may outlive a test that timed out.
func within(t *testing.T, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("%s: %v", what, err)
		}
	case <-time.After(contractBound):
		t.Fatalf("%s did not return within %v", what, contractBound)
	}
}

// getAt serves one GET on s and checks that it answers 200 from version want.
func getAt(s *Server, target string, want uint64) error {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	if got := rec.Header().Get(VersionHeader); rec.Code != http.StatusOK || got != strconv.FormatUint(want, 10) {
		return fmt.Errorf("status %d from version %s, want 200 from version %d", rec.Code, got, want)
	}
	return nil
}

// TestParkedCommitDelaysNoRead holds a writer inside OnCommit, where a
// leader fsyncs its WAL, with writeMu held. Reads, /metrics and Checkpoint
// must all return meanwhile, from the version before the parked burst.
func TestParkedCommitDelaysNoRead(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var unpark sync.Once
	s := NewWithOptions(datagen.Figure1Lake(), domainnet.Config{Measure: domainnet.DegreeBaseline}, Options{
		OnCommit: func(Mutation) error {
			close(entered)
			<-release
			return nil
		},
	})
	t.Cleanup(func() {
		unpark.Do(func() { close(release) })
		s.Close()
	})
	before := s.Version()

	applied := make(chan error, 1)
	go func() {
		_, err := s.Apply([]*table.Table{pairTable("parked", 0)}, nil)
		applied <- err
	}()
	within(t, "the write reaching OnCommit", func() error { <-entered; return nil })

	for _, target := range []string{"/topk?k=3", "/stats", "/metrics"} {
		within(t, "GET "+target+" beside a parked commit", func() error { return getAt(s, target, before) })
	}
	within(t, "Checkpoint beside a parked commit", func() error {
		return s.Checkpoint(func(l *lake.Lake, g *bipartite.Graph) error {
			if l.Version() != before || g == nil {
				return fmt.Errorf("saw version %d (graph %v), want the published %d", l.Version(), g != nil, before)
			}
			return nil
		})
	})

	unpark.Do(func() { close(release) })
	within(t, "the released write", func() error { return <-applied })
	if s.Version() != before+1 {
		t.Errorf("version after the released write = %d, want %d", s.Version(), before+1)
	}
}

// TestTricklingUploadDelaysNoWriter sends a POST /tables/{name} whose body
// arrives through a pipe the test feeds. While the handler waits for the
// rest of the body, another writer's Apply and a read both complete: the
// body is read and parsed before the write lock is taken.
func TestTricklingUploadDelaysNoWriter(t *testing.T) {
	s := New(datagen.Figure1Lake(), domainnet.Config{Measure: domainnet.DegreeBaseline})
	pr, pw := io.Pipe()
	t.Cleanup(func() {
		pw.CloseWithError(errors.New("test ended"))
		s.Close()
	})
	uploaded := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/tables/trickle", pr))
		uploaded <- rec
	}()
	send := func(chunk string) {
		// A pipe write returns once the handler has read the chunk.
		within(t, "the handler reading "+strconv.Quote(chunk), func() error {
			_, err := io.WriteString(pw, chunk)
			return err
		})
	}
	send("animal,city\njaguar,")

	var version uint64
	within(t, "Apply beside a trickling upload", func() (err error) {
		version, err = s.Apply([]*table.Table{pairTable("beside", 0)}, nil)
		return err
	})
	within(t, "GET /topk beside a trickling upload", func() error { return getAt(s, "/topk?k=3", version) })

	send("Paris\npuma,Lyon\n")
	pw.Close()
	within(t, "the finished upload", func() error {
		if rec := <-uploaded; rec.Code != http.StatusCreated {
			return fmt.Errorf("POST /tables/trickle = %d, want 201: %s", rec.Code, rec.Body)
		}
		return nil
	})
	if s.Version() != version+1 {
		t.Errorf("version after the upload = %d, want %d", s.Version(), version+1)
	}
}

// queuedWriters counts the goroutines blocked taking writeMu in withWrite,
// read from every goroutine's stack: the server keeps no count of them.
func queuedWriters() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "[sync.Mutex.Lock") && strings.Contains(g, ").withWrite(") {
			n++
		}
	}
	return n
}

// TestQueuedWritesAreServedWhenAcknowledged parks one Apply inside OnCommit
// with writeMu held and queues a second behind it. Each must return a
// version the server already serves, so the two cost two publishes: a
// queued writer never leaves its publish to the writer behind it.
func TestQueuedWritesAreServedWhenAcknowledged(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var park, unpark sync.Once
	s := NewWithOptions(datagen.Figure1Lake(), domainnet.Config{Measure: domainnet.DegreeBaseline}, Options{
		OnCommit: func(Mutation) error {
			park.Do(func() {
				close(entered)
				<-release
			})
			return nil
		},
	})
	t.Cleanup(func() {
		unpark.Do(func() { close(release) })
		s.Close()
	})
	before, publishes := s.Version(), s.Publishes()

	acked := make(chan error, 2)
	write := func(i int) {
		v, err := s.Apply([]*table.Table{pairTable("queued", i)}, nil)
		if served := s.Version(); err == nil && served < v {
			err = fmt.Errorf("Apply returned version %d while the server serves %d", v, served)
		}
		acked <- err
	}
	go write(0)
	within(t, "the first write reaching OnCommit", func() error { <-entered; return nil })
	go write(1)
	for deadline := time.Now().Add(contractBound); queuedWriters() != 1; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("the second write did not queue on writeMu within %v", contractBound)
		}
	}

	unpark.Do(func() { close(release) })
	for i := 0; i < 2; i++ {
		within(t, "a queued write", func() error { return <-acked })
	}
	if got := s.Publishes() - publishes; got != 2 {
		t.Errorf("2 queued writes cost %d publishes, want 2", got)
	}
	if s.Version() != before+2 {
		t.Errorf("version after both writes = %d, want %d", s.Version(), before+2)
	}
}
