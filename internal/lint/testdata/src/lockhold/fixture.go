// Package lockhold seeds violations (and non-violations) of the writeMu
// critical-section discipline for the lockhold analyzer.
package lockhold

import (
	"net/http"
	"os"
	"sync"
)

type store struct {
	writeMu sync.Mutex
	file    *os.File
	n       int
}

// badHTTPUnderLock waits on the network while holding the write lock.
func (s *store) badHTTPUnderLock(url string) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	http.Get(url) // want "net/http.Get called while writeMu is held"
}

// badHTTPInBranch hides the network call behind a condition; still held.
func (s *store) badHTTPInBranch(url string, cond bool) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if cond {
		http.Post(url, "text/plain", nil) // want "net/http.Post called while writeMu is held"
	}
}

// badSyncUnderLock fsyncs inside the critical section.
func (s *store) badSyncUnderLock() {
	s.writeMu.Lock()
	s.file.Sync() // want "Sync while writeMu is held"
	s.writeMu.Unlock()
}

// goodSyncOutsideLock releases before the fsync — the sanctioned shape.
func (s *store) goodSyncOutsideLock() {
	s.writeMu.Lock()
	s.n++
	s.writeMu.Unlock()
	s.file.Sync()
}

// goodDeferredUnlockNoBanned holds the lock for pure in-memory work.
func (s *store) goodDeferredUnlockNoBanned() int {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	s.n++
	return s.n
}

// goodOtherMutex holds some other lock; the discipline is writeMu's alone.
func (s *store) goodOtherMutex(mu *sync.Mutex, url string) {
	mu.Lock()
	defer mu.Unlock()
	http.Get(url)
}

// badClosureUnderLock takes the lock inside a function literal — closures
// get their own lock-state scan wherever they are declared.
func (s *store) badClosureUnderLock(url string) func() {
	return func() {
		s.writeMu.Lock()
		defer s.writeMu.Unlock()
		http.Get(url) // want "net/http.Get called while writeMu is held"
	}
}

// fetchURL reaches the network; harmless on its own.
func fetchURL(url string) {
	resp, err := http.Get(url)
	if err == nil {
		resp.Body.Close()
	}
}

// slowHelper buries the network call one more frame down.
func slowHelper(url string) {
	fetchURL(url)
}

// badTransitiveUnderLock never mentions net/http, but its callee's callee
// does — only the propagated summaries can see the banned call.
func (s *store) badTransitiveUnderLock(url string) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	slowHelper(url) // want "call while writeMu is held reaches net/http.Get"
}

// goodTransitiveOutsideLock calls the same helper after releasing.
func (s *store) goodTransitiveOutsideLock(url string) {
	s.writeMu.Lock()
	s.n++
	s.writeMu.Unlock()
	slowHelper(url)
}

// helperLeavesLocked returns still holding writeMu.
func (s *store) helperLeavesLocked() {
	s.writeMu.Lock()
	s.n++
}

// badAfterHelperLock: the helper's summary says it exits holding writeMu,
// so everything after the call is a critical section too.
func (s *store) badAfterHelperLock(url string) {
	s.helperLeavesLocked()
	http.Get(url) // want "net/http.Get called while writeMu is held"
	s.writeMu.Unlock()
}
