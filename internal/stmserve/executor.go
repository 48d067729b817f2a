package stmserve

import "sync"

// The two connection→engine.Thread mappings behind Session. Both implement
// the same pair of internal interfaces so the Service, the servers and the
// conformance suite are indifferent to the choice; cmd/stmload exists to
// measure the difference.

// executor owns the Service's engine Threads and hands out sessions.
type executor interface {
	// session opens one connection's execution context.
	session() execSession
	// close shuts the executor down; in-flight pool requests fail with
	// ErrClosed.
	close()
}

// execSession runs transactional requests for one connection. Like Session,
// single-goroutine; it is not used after close.
type execSession interface {
	do(req *Request, resp *Response) error
	close()
}

// threadExecutor is the goroutine-per-connection mapping: every open session
// owns an engine.Thread (plus its prebuilt applier), so requests run inline
// on the calling goroutine with no queueing. A closed session hands its
// applier back to free, and the next session takes it before a new Thread
// is made: Thread state scales with the peak count of open sessions.
type threadExecutor struct {
	svc  *Service
	mu   sync.Mutex
	free []*applier
}

func (e *threadExecutor) session() execSession {
	var ap *applier
	e.mu.Lock()
	if n := len(e.free) - 1; n >= 0 {
		ap, e.free = e.free[n], e.free[:n]
	}
	e.mu.Unlock()
	if ap == nil {
		ap = newApplier(e.svc, e.svc.eng.Thread(e.svc.nextThreadID()))
	}
	return &threadSession{exec: e, ap: ap}
}

func (e *threadExecutor) close() {}

type threadSession struct {
	exec *threadExecutor
	ap   *applier
}

func (s *threadSession) do(req *Request, resp *Response) error { return s.ap.do(req, resp) }

func (s *threadSession) close() {
	s.exec.mu.Lock()
	s.exec.free = append(s.exec.free, s.ap)
	s.exec.mu.Unlock()
}

// poolExecutor is the bounded-worker mapping: a fixed set of workers, each
// owning one long-lived engine.Thread, drains a shared queue that all
// sessions submit to. Thread state is fixed regardless of connection count;
// requests pay queueing delay under load (visible in the per-op latency
// histograms, which bracket the whole Exec).
type poolExecutor struct {
	svc   *Service
	calls chan *poolCall
	quit  chan struct{}
}

// poolCall is one queued request. done is buffered so a worker's completion
// send never blocks, and the session drains it before reuse.
type poolCall struct {
	req  *Request
	resp *Response
	done chan error
}

func newPoolExecutor(svc *Service, workers int) *poolExecutor {
	e := &poolExecutor{
		svc:   svc,
		calls: make(chan *poolCall),
		quit:  make(chan struct{}),
	}
	for i := 0; i < workers; i++ {
		ap := newApplier(svc, svc.eng.Thread(svc.nextThreadID()))
		go e.worker(ap)
	}
	return e
}

func (e *poolExecutor) worker(ap *applier) {
	for {
		select {
		case c := <-e.calls:
			c.done <- ap.do(c.req, c.resp)
		case <-e.quit:
			return
		}
	}
}

func (e *poolExecutor) close() { close(e.quit) }

func (e *poolExecutor) session() execSession {
	return &poolSession{exec: e, call: &poolCall{done: make(chan error, 1)}}
}

// poolSession submits to the shared queue. The session reuses one poolCall;
// do always drains done before returning, so the call is free on re-entry.
type poolSession struct {
	exec *poolExecutor
	call *poolCall
}

func (s *poolSession) do(req *Request, resp *Response) error {
	c := s.call
	c.req, c.resp = req, resp
	select {
	case s.exec.calls <- c:
	case <-s.exec.quit:
		return ErrClosed
	}
	// The handoff over the unbuffered channel succeeded, so a worker's
	// select committed to the calls branch: it runs the request to
	// completion and sends done before it can observe quit. Blocking here
	// cannot hang, and never leaves a stale result behind for the next
	// reuse of the call.
	return <-c.done
}

func (s *poolSession) close() {}
