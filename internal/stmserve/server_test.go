package stmserve

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/engine"
)

// pipeClient runs ServeConn over one end of a net.Pipe and returns a Client
// on the other — the full wire stack with no sockets.
func pipeClient(t *testing.T, srv *Server) *Client {
	t.Helper()
	serverEnd, clientEnd := net.Pipe()
	go srv.ServeConn(serverEnd)
	c := NewClient(clientEnd)
	t.Cleanup(func() { c.Close() })
	return c
}

func TestServeConn(t *testing.T) {
	svc := newTestService(t, Config{Keys: 16, Initial: 5})
	srv := NewServer(svc)
	c := pipeClient(t, srv)

	var resp Response
	do := func(req Request) *Response {
		t.Helper()
		if err := c.Do(&req, &resp); err != nil {
			t.Fatalf("Do(%v): %v", req.Op, err)
		}
		return &resp
	}
	if r := do(Request{Op: OpPing}); r.Err != "" {
		t.Fatalf("PING: %s", r.Err)
	}
	if r := do(Request{Op: OpInfo}); r.Text != "norec" || r.Vals[0] != 16 {
		t.Fatalf("INFO = %q %v", r.Text, r.Vals)
	}
	do(Request{Op: OpTransfer, Key: 1, Key2: 2, Val: 3})
	if r := do(Request{Op: OpSnapshot, Keys: []int{1, 2}}); r.Vals[0] != 2 || r.Vals[1] != 8 {
		t.Fatalf("snapshot over the wire = %v, want [2 8]", r.Vals)
	}
	// Op-level failure arrives as resp.Err, not a transport error.
	if r := do(Request{Op: OpRead, Key: 99}); !strings.Contains(r.Err, "out of range") {
		t.Fatalf("bad key error = %q", r.Err)
	}
	// STATS over the wire parses back into Stats.
	r := do(Request{Op: OpStats})
	var st Stats
	if err := json.Unmarshal([]byte(r.Text), &st); err != nil {
		t.Fatalf("STATS JSON: %v (%q)", err, r.Text)
	}
	if st.Engine != "norec" {
		t.Fatalf("STATS engine = %q", st.Engine)
	}
}

// TestServeConnMalformed drives raw protocol lines, including garbage, and
// asserts the connection survives with ERR responses.
func TestServeConnMalformed(t *testing.T) {
	svc := newTestService(t, Config{Keys: 4})
	srv := NewServer(svc)
	serverEnd, clientEnd := net.Pipe()
	go srv.ServeConn(serverEnd)
	defer clientEnd.Close()

	send := func(line string) string {
		t.Helper()
		if _, err := clientEnd.Write([]byte(line + "\n")); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 4096)
		n, err := clientEnd.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		return strings.TrimSuffix(string(buf[:n]), "\n")
	}
	if got := send("NOPE"); !strings.HasPrefix(got, "ERR ") {
		t.Fatalf("garbage verb → %q", got)
	}
	if got := send("R zzz"); !strings.HasPrefix(got, "ERR ") {
		t.Fatalf("garbage key → %q", got)
	}
	if got := send("R 1"); got != "OK 1000" {
		t.Fatalf("valid request after garbage → %q, want OK 1000", got)
	}
}

func TestServerServeShutdown(t *testing.T) {
	for _, mode := range []string{ModeThread, ModePool} {
		t.Run(mode, func(t *testing.T) {
			eng := engine.MustNew("norec", engine.Options{})
			svc, err := New(eng, Config{Keys: 8, Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			srv := NewServer(svc)
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			serveDone := make(chan error, 1)
			go func() { serveDone <- srv.Serve(l) }()

			c, err := Dial(l.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			var resp Response
			if err := c.Do(&Request{Op: OpWrite, Key: 3, Val: 7}, &resp); err != nil || resp.Err != "" {
				t.Fatalf("write over TCP: %v %q", err, resp.Err)
			}
			if err := c.Do(&Request{Op: OpRead, Key: 3}, &resp); err != nil || resp.Vals[0] != 7 {
				t.Fatalf("read over TCP = %v %v", err, resp.Vals)
			}

			srv.Shutdown()
			if err := <-serveDone; err != ErrServerClosed {
				t.Fatalf("Serve returned %v, want ErrServerClosed", err)
			}
			svc.Close()
		})
	}
}

func TestHTTPHandler(t *testing.T) {
	svc := newTestService(t, Config{Keys: 8, Initial: 10})
	ts := httptest.NewServer(NewHTTPHandler(svc))
	defer ts.Close()

	post := func(req Request) Response {
		t.Helper()
		body, _ := json.Marshal(req)
		r, err := http.Post(ts.URL+"/op", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var resp Response
		if err := json.NewDecoder(r.Body).Decode(&resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	if resp := post(Request{Op: OpTransfer, Key: 0, Key2: 1, Val: 4}); resp.Err != "" {
		t.Fatalf("transfer: %s", resp.Err)
	}
	if resp := post(Request{Op: OpRead, Key: 1}); len(resp.Vals) != 1 || resp.Vals[0] != 14 {
		t.Fatalf("read = %+v, want Vals [14]", resp)
	}
	if resp := post(Request{Op: OpRead, Key: 99}); !strings.Contains(resp.Err, "out of range") {
		t.Fatalf("bad key = %+v", resp)
	}

	// /engines serves the registry's introspection, capabilities included.
	r, err := http.Get(ts.URL + "/engines")
	if err != nil {
		t.Fatal(err)
	}
	var infos []engine.Info
	if err := json.NewDecoder(r.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if len(infos) != len(engine.Names()) {
		t.Fatalf("/engines lists %d backends, registry has %d", len(infos), len(engine.Names()))
	}
	found := false
	for _, info := range infos {
		if info.Name == "lsa/shared" {
			found = info.Capabilities.MultiVersion
		}
	}
	if !found {
		t.Fatal("/engines does not report lsa/shared with its capabilities")
	}

	// /stats serves this instance's counters.
	r, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if st.Engine != "norec" || st.Ops == 0 {
		t.Fatalf("/stats = %+v", st)
	}

	// /healthz answers.
	r, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d", r.StatusCode)
	}
}

// TestHTTPSequentialReuseThread: every POST /op opens and closes a session,
// so requests one after another run on one engine thread, however often the
// collector runs between them.
func TestHTTPSequentialReuseThread(t *testing.T) {
	svc := newLSAService(t)
	ts := httptest.NewServer(NewHTTPHandler(svc))
	defer ts.Close()
	for i := range 100 {
		body, _ := json.Marshal(Request{Op: OpTransfer, Key: i % 8, Key2: (i + 1) % 8, Val: 1})
		r, err := http.Post(ts.URL+"/op", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		var resp Response
		err = json.NewDecoder(r.Body).Decode(&resp)
		r.Body.Close()
		if err != nil || resp.Err != "" {
			t.Fatalf("transfer %d: %v %q", i, err, resp.Err)
		}
		runtime.GC()
	}
	if got := threadsMade(svc); got != 1 {
		t.Fatalf("100 sequential requests created %d engine threads, want 1", got)
	}
}
