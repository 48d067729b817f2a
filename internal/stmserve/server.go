package stmserve

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// Server serves the line protocol over stream connections. It is a thin
// shell: each connection gets one Session (so Config.Mode decides how long
// a Thread is held), a reused Request/Response pair, and a read loop — all
// transactional semantics live in the Service. ServeConn is exported so
// tests drive it over net.Pipe without sockets.
type Server struct {
	svc *Service

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	closed    bool

	wg sync.WaitGroup
}

// NewServer builds a line-protocol server over svc.
func NewServer(svc *Service) *Server {
	return &Server{
		svc:       svc,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
	}
}

// Service returns the backing service.
func (s *Server) Service() *Service { return s.svc }

// ErrServerClosed is returned by Serve after Shutdown.
var ErrServerClosed = errors.New("stmserve: server closed")

// Serve accepts connections on l until Shutdown (or a fatal accept error),
// serving each on its own goroutine. It blocks; run it on a goroutine per
// listener.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return ErrServerClosed
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()

	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return fmt.Errorf("stmserve: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return ErrServerClosed
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				s.wg.Done()
			}()
			s.ServeConn(conn)
		}()
	}
}

// Shutdown closes every listener and open connection, then waits for the
// connection handlers to drain. Safe to call more than once.
func (s *Server) Shutdown() {
	s.mu.Lock()
	s.closed = true
	for l := range s.listeners {
		l.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// maxLine bounds a request line; batch requests beyond it should be split.
const maxLine = 1 << 20

// ServeConn serves the line protocol on one connection until EOF or error.
// One Session spans the connection's life — in ModeThread this is what
// gives each connection its own engine Thread.
func (s *Server) ServeConn(conn io.ReadWriteCloser) {
	defer conn.Close()
	sess := s.svc.Session()
	defer sess.Close()

	var req Request
	var resp Response
	out := make([]byte, 0, 256)
	w := bufio.NewWriter(conn)
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 4096), maxLine)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if err := ParseRequest(line, &req); err != nil {
			resp.Reset()
			resp.Err = err.Error()
		} else {
			sess.Exec(&req, &resp) // failure is already in resp.Err
		}
		out = AppendResponse(out[:0], &resp)
		out = append(out, '\n')
		if _, err := w.Write(out); err != nil {
			return
		}
		// The protocol is strictly request-response per connection, so
		// flush eagerly; batching happens across connections, not within.
		if err := w.Flush(); err != nil {
			return
		}
	}
}
