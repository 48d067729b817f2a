package stmserve

import "sync"

// threadSet is the Service's one set of engine threads, each with its
// prebuilt applier. Both modes lend from it; they differ only in how long a
// loan lasts and in the limit. In ModeThread a Session holds an applier
// from open to Close and the set is unbounded, so thread state follows the
// peak count of open sessions. In ModePool the set holds GOMAXPROCS
// appliers, all made in New, and Exec borrows one per request on the
// caller's goroutine, waiting while every one is lent out.
type threadSet struct {
	svc    *Service
	mu     sync.Mutex
	cond   sync.Cond // signalled by put and close
	free   []*applier
	made   int // engine threads made so far; the next one's id
	limit  int // 0 = unbounded
	closed bool
}

func (t *threadSet) init(svc *Service, limit int) {
	t.svc, t.limit = svc, limit
	t.cond.L = &t.mu
	for range limit {
		t.free = append(t.free, t.newApplier())
	}
}

// newApplier makes the set's next engine thread. Callers hold mu, or own t.
func (t *threadSet) newApplier() *applier {
	ap := newApplier(t.svc, t.svc.eng.Thread(t.made))
	t.made++
	return ap
}

// get lends an applier: an idle one, else a new one while the set is below
// its limit, else the next one put back. It fails with ErrClosed once the
// set is closed.
func (t *threadSet) get() (*applier, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if t.closed {
			return nil, ErrClosed
		}
		if n := len(t.free) - 1; n >= 0 {
			ap := t.free[n]
			t.free = t.free[:n]
			return ap, nil
		}
		if t.limit == 0 || t.made < t.limit {
			return t.newApplier(), nil
		}
		t.cond.Wait()
	}
}

// put returns a lent applier.
func (t *threadSet) put(ap *applier) {
	t.mu.Lock()
	t.free = append(t.free, ap)
	t.mu.Unlock()
	t.cond.Signal()
}

// do runs one request on a borrowed applier (ModePool).
func (t *threadSet) do(req *Request, resp *Response) error {
	ap, err := t.get()
	if err != nil {
		return err
	}
	defer t.put(ap)
	return ap.do(req, resp)
}

// close fails every waiting and later get with ErrClosed.
func (t *threadSet) close() {
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
	t.cond.Broadcast()
}
