package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"domainnet/internal/router"
	"domainnet/internal/serve"
)

// Kinds of operation in an open-loop schedule. The read mix is 70%
// conditional /topk (If-None-Match set to the last ETag seen for that k),
// 20% unconditional /topk and 10% /score.
const (
	readTopKCond = iota
	readTopK
	readScore
	opWrite
)

var topKs = [...]int{10, 20, 30, 40, 50}

// op is one scheduled request.
type op struct {
	due   time.Duration // from the start of the measured window
	kind  int
	k     int
	value string // readScore: the value looked up
	write int    // opWrite: index into the run's write plan
}

// schedule draws an open-loop schedule from the seed: Poisson arrivals of
// reads at readRate and of writes at writeRate per second over dur. Score
// lookups draw values Zipf(1.1) over values, so a few hot values take most
// lookups, as in a lake where some values are asked about far more.
func schedule(seed int64, dur time.Duration, readRate, writeRate float64, values []string) []op {
	var ops []op
	if readRate > 0 {
		rng := rand.New(rand.NewSource(seed))
		zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(values)-1))
		for t := arrival(rng, readRate); t < dur; t += arrival(rng, readRate) {
			o := op{due: t, k: topKs[rng.Intn(len(topKs))]}
			switch u := rng.Float64(); {
			case u < 0.7:
				o.kind = readTopKCond
			case u < 0.9:
				o.kind = readTopK
			default:
				o.kind, o.value = readScore, values[zipf.Uint64()]
			}
			ops = append(ops, o)
		}
	}
	if writeRate > 0 {
		rng := rand.New(rand.NewSource(seed ^ 0x77726974))
		n := 0
		for t := arrival(rng, writeRate); t < dur; t += arrival(rng, writeRate) {
			ops = append(ops, op{due: t, kind: opWrite, write: n})
			n++
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	return ops
}

func arrival(rng *rand.Rand, rate float64) time.Duration {
	return time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
}

// shuffled returns values in a seed-chosen order, so which values are hot
// under the Zipf draw changes with the seed.
func shuffled(seed int64, values []string) []string {
	out := append([]string(nil), values...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// senders is how many goroutines send load: one per CPU, so the load
// generator never has more requests in flight than the machine has cores.
func senders() int { return runtime.NumCPU() }

// newSenderClient returns a client holding at most one keep-alive
// connection per host.
func newSenderClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// drive runs an open-loop schedule from one sender goroutine per client.
// Whichever sender is free takes the next op, sends it no earlier than due,
// and do times it from due — so a stall delays and charges every op queued
// behind it rather than hiding them.
func drive(start time.Time, ops []op, clients []*http.Client, do func(c *http.Client, i int, due time.Time)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				due := start.Add(ops[i].due)
				sleepUntil(due)
				do(c, i, due)
			}
		}()
	}
	wg.Wait()
}

// sleepUntil waits until t. On the 2-vCPU Linux VM the benchmark was tuned
// on, Go's timers fire on a millisecond grid (a 50 µs time.Sleep took about
// 1 ms), which would add half a millisecond to every open-loop send and to
// every poll; a blocking nanosleep on the goroutine's own thread woke within
// about 60 µs of its deadline.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		switch {
		case d <= 0:
			return
		case d > 2*time.Millisecond:
			time.Sleep(d - 2*time.Millisecond)
		default:
			ts := syscall.NsecToTimespec(int64(d))
			syscall.Nanosleep(&ts, nil) //nolint:errcheck // EINTR: the loop re-checks the deadline
		}
	}
}

// reads issues the read mix against a fleet and checks every answer:
// statuses, ETag semantics, and that every body served for the same
// request at the same version is byte-identical, whichever process served
// it.
type reads struct {
	tr        *tracer
	leaderURL string

	mu     sync.Mutex
	etags  map[int]string      // k → last ETag seen
	bodies map[string][32]byte // request + " @" + version → body digest
	late   []float64           // ms from due to send

	replica, leader, notModified, topk200 atomic.Int64
}

func newReads(tr *tracer, leaderURL string) *reads {
	return &reads{tr: tr, leaderURL: leaderURL, etags: map[int]string{}, bodies: map[string][32]byte{}}
}

func (o *op) path() string {
	if o.kind == readScore {
		return "/score?value=" + url.QueryEscape(o.value)
	}
	return "/topk?k=" + strconv.Itoa(o.k)
}

// do sends one read through base. With trace non-zero it records the
// operation as an "op" root span over [due, done], a "loadgen.late" span for
// the wait past due, and a "net.client" span around the HTTP exchange,
// whose header links the router's span below it.
func (rd *reads) do(c *http.Client, base string, o *op, due time.Time, trace uint64) (time.Duration, error) {
	req, err := http.NewRequest(http.MethodGet, base+o.path(), nil)
	if err != nil {
		return 0, err
	}
	var cond string
	if o.kind == readTopKCond {
		rd.mu.Lock()
		cond = rd.etags[o.k]
		rd.mu.Unlock()
		if cond != "" {
			req.Header.Set("If-None-Match", cond)
		}
	}
	var root, client uint64
	if trace != 0 {
		root, client = rd.tr.newID(), rd.tr.newID()
		req.Header.Set(spanHeader, formatSpanHeader(trace, client))
	}
	send := time.Now()
	resp, err := c.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	done := time.Now()
	rd.mu.Lock()
	rd.late = append(rd.late, float64(send.Sub(due))/1e6)
	rd.mu.Unlock()
	if trace != 0 {
		rd.tr.add("loadgen.late", rd.tr.newID(), trace, root, due, send)
		rd.tr.add("net.client", client, trace, root, send, done)
		rd.tr.add("op", root, trace, 0, due, done)
	}
	if err != nil {
		return 0, err
	}
	return done.Sub(due), rd.check(o, cond, resp, body)
}

func (rd *reads) check(o *op, cond string, resp *http.Response, body []byte) error {
	if b := resp.Header.Get(router.BackendHeader); b == rd.leaderURL {
		rd.leader.Add(1)
	} else if b != "" {
		rd.replica.Add(1)
	}
	ver := resp.Header.Get(serve.VersionHeader)
	if ver == "" {
		return fmt.Errorf("GET %s: no %s header", o.path(), serve.VersionHeader)
	}
	etag := resp.Header.Get("ETag")
	switch {
	case resp.StatusCode == http.StatusNotModified && cond != "":
		if etag != cond {
			return fmt.Errorf("GET %s: 304 for If-None-Match %s, but the current ETag is %s", o.path(), cond, etag)
		}
		rd.notModified.Add(1)
		return nil
	case resp.StatusCode != http.StatusOK:
		return fmt.Errorf("GET %s: status %d: %.200s", o.path(), resp.StatusCode, body)
	}
	if o.kind != readScore {
		if cond != "" && etag == cond {
			return fmt.Errorf("GET %s: 200 with a full body for a matching If-None-Match %s", o.path(), cond)
		}
		rd.topk200.Add(1)
		rd.mu.Lock()
		rd.etags[o.k] = etag
		rd.mu.Unlock()
	}
	return rd.record(o.path()+" @"+ver, body)
}

// record keeps the first body seen for a request at a version and rejects
// any later body that differs from it.
func (rd *reads) record(key string, body []byte) error {
	sum := sha256.Sum256(body)
	rd.mu.Lock()
	defer rd.mu.Unlock()
	if prev, ok := rd.bodies[key]; ok && prev != sum {
		return fmt.Errorf("two bodies for GET %s", key)
	}
	rd.bodies[key] = sum
	return nil
}

// verify fetches, straight from the leader, every request recorded at the
// leader's current version and compares it with what the fleet served.
func (rd *reads) verify(c *http.Client, version uint64) error {
	suffix := " @" + strconv.FormatUint(version, 10)
	rd.mu.Lock()
	var keys []string
	for key := range rd.bodies {
		if len(key) > len(suffix) && key[len(key)-len(suffix):] == suffix {
			keys = append(keys, key)
		}
	}
	rd.mu.Unlock()
	for _, key := range keys {
		path := key[:len(key)-len(suffix)]
		body, ver, err := get(c, rd.leaderURL+path)
		if err != nil {
			return err
		}
		if ver != strconv.FormatUint(version, 10) {
			return fmt.Errorf("leader moved to version %s while verifying", ver)
		}
		if err := rd.record(key, body); err != nil {
			return fmt.Errorf("fleet and leader disagree: %w", err)
		}
	}
	return nil
}

// setMetrics records the read-path counters every fleet workload shares.
func (rd *reads) setMetrics(m *meter, f *fleet, misses0 int64) {
	served := rd.replica.Load() + rd.leader.Load()
	if served > 0 {
		m.set("router.replica_share", float64(rd.replica.Load())/float64(served), "share", "higher")
	}
	if n := rd.notModified.Load() + rd.topk200.Load(); n > 0 {
		m.set("serve.not_modified_share", float64(rd.notModified.Load())/float64(n), "share", "higher")
	}
	m.set("router.ejections", float64(f.ejections.Load()), "count", "lower")
	m.set("serve.cold_misses", float64(f.warmTotals().Misses-misses0), "count", "lower")
	rd.mu.Lock()
	late := append([]float64(nil), rd.late...)
	rd.mu.Unlock()
	if len(late) > 0 {
		m.set("loadgen.late_us_p99", quantile(late, 0.99)*1e3, "us", "lower")
	}
}

// get fetches url and returns its body and version header, failing on any
// status but 200.
func get(c *http.Client, url string) ([]byte, string, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("GET %s: status %d: %.200s", url, resp.StatusCode, body)
	}
	return body, resp.Header.Get(serve.VersionHeader), nil
}
