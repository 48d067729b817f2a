package stmserve

import (
	"reflect"
	"strings"
	"testing"
)

// parseRequestCases, parseRequestErrorCases, roundTripRequests and
// roundTripResponses are the wire tables; the fuzz targets below seed their
// corpora from them.
var parseRequestCases = []struct {
	line string
	want Request
}{
	{"PING", Request{Op: OpPing}},
	{"INFO", Request{Op: OpInfo}},
	{"STATS", Request{Op: OpStats}},
	{"R 7", Request{Op: OpRead, Key: 7}},
	{"W 7 42", Request{Op: OpWrite, Key: 7, Val: 42}},
	{"T 1 2 50", Request{Op: OpTransfer, Key: 1, Key2: 2, Val: 50}},
	{"C 3 10 20", Request{Op: OpCAS, Key: 3, Val: 10, Val2: 20}},
	{"SNAP 1 2 3", Request{Op: OpSnapshot, Keys: []int{1, 2, 3}}},
	{"MR 4 5", Request{Op: OpBatchRead, Keys: []int{4, 5}}},
	{"MW 1 10 2 20", Request{Op: OpBatchWrite, Keys: []int{1, 2}, Vals: []int64{10, 20}}},
	{"SADD 9", Request{Op: OpSetAdd, Key: 9}},
	{"SREM 9", Request{Op: OpSetRemove, Key: 9}},
	{"SHAS 9", Request{Op: OpSetContains, Key: 9}},
	{"W 7 -42", Request{Op: OpWrite, Key: 7, Val: -42}},
	{"  R   7  ", Request{Op: OpRead, Key: 7}}, // tolerant of extra spaces
}

var parseRequestErrorCases = []struct {
	line string
	want string
}{
	{"", "empty"},
	{"   ", "empty"},
	{"FLY 1", "unknown verb"},
	{"R", "needs 1 fields"},
	{"R x", "bad field"},
	{"R 1 2", "trailing"},
	{"W 1", "needs 2 fields"},
	{"T 1 2", "needs 3 fields"},
	{"SNAP", "at least one key"},
	{"SNAP x", "bad key"},
	{"MW", "at least one key-value pair"},
	{"MW 1", "without a value"},
	{"MW 1 x", "bad value"},
}

var roundTripRequests = []Request{
	{Op: OpPing},
	{Op: OpInfo},
	{Op: OpStats},
	{Op: OpRead, Key: 12},
	{Op: OpWrite, Key: 3, Val: -7},
	{Op: OpTransfer, Key: 0, Key2: 1023, Val: 99},
	{Op: OpCAS, Key: 5, Val: 1, Val2: 2},
	{Op: OpSnapshot, Keys: []int{0, 1, 2, 3}},
	{Op: OpBatchRead, Keys: []int{9}},
	{Op: OpBatchWrite, Keys: []int{1, 2, 3}, Vals: []int64{-1, 0, 1}},
	{Op: OpSetAdd, Key: 1},
	{Op: OpSetRemove, Key: 2},
	{Op: OpSetContains, Key: 3},
}

var roundTripResponses = []Response{
	{},
	{Vals: []int64{42}},
	{Vals: []int64{-1, 0, 7}},
	{Text: "norec", Vals: []int64{1024}},
	{Text: `{"engine":"norec"}`},
	{Err: "key 9 out of range"},
}

// normRequest and normResponse map empty slices to nil, so a reused
// (truncated) slice compares equal to an absent one.
func normRequest(r Request) Request {
	if len(r.Keys) == 0 {
		r.Keys = nil
	}
	if len(r.Vals) == 0 {
		r.Vals = nil
	}
	return r
}

func normResponse(r Response) Response {
	if len(r.Vals) == 0 {
		r.Vals = nil
	}
	return r
}

func TestParseRequest(t *testing.T) {
	var req Request
	for _, tc := range parseRequestCases {
		if err := ParseRequest([]byte(tc.line), &req); err != nil {
			t.Errorf("ParseRequest(%q): %v", tc.line, err)
			continue
		}
		if got := normRequest(req); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseRequest(%q) = %+v, want %+v", tc.line, got, tc.want)
		}
	}
}

func TestParseRequestErrors(t *testing.T) {
	var req Request
	for _, tc := range parseRequestErrorCases {
		err := ParseRequest([]byte(tc.line), &req)
		if err == nil {
			t.Errorf("ParseRequest(%q) accepted", tc.line)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseRequest(%q) error %q does not mention %q", tc.line, err, tc.want)
		}
	}
}

func TestRequestRoundTrip(t *testing.T) {
	var back Request
	for _, req := range roundTripRequests {
		line, err := AppendRequest(nil, &req)
		if err != nil {
			t.Fatalf("AppendRequest(%+v): %v", req, err)
		}
		if err := ParseRequest(line, &back); err != nil {
			t.Fatalf("ParseRequest(%q): %v", line, err)
		}
		if got := normRequest(back); !reflect.DeepEqual(got, req) {
			t.Fatalf("round trip %+v → %q → %+v", req, line, got)
		}
	}
	if _, err := AppendRequest(nil, &Request{Op: OpInvalid}); err == nil {
		t.Fatal("AppendRequest encoded the invalid op")
	}
	if _, err := AppendRequest(nil, &Request{Op: OpBatchWrite, Keys: []int{1}, Vals: nil}); err == nil {
		t.Fatal("AppendRequest encoded a ragged batch write")
	}
}

func TestResponseRoundTrip(t *testing.T) {
	var back Response
	for _, resp := range roundTripResponses {
		line := AppendResponse(nil, &resp)
		if err := ParseResponse(line, &back); err != nil {
			t.Fatalf("ParseResponse(%q): %v", line, err)
		}
		if got := normResponse(back); !reflect.DeepEqual(got, resp) {
			t.Fatalf("round trip %+v → %q → %+v", resp, line, got)
		}
	}
	if err := ParseResponse([]byte("WAT 1"), &back); err == nil {
		t.Fatal("ParseResponse accepted a malformed line")
	}
	if err := ParseResponse([]byte("OK foo bar"), &back); err == nil {
		t.Fatal("ParseResponse accepted two text tokens")
	}
}

// TestParseRequestReusesSlices pins the zero-steady-state-allocation
// property the server loop depends on: parsing into a warm Request must not
// grow its slices again.
func TestParseRequestReusesSlices(t *testing.T) {
	var req Request
	if err := ParseRequest([]byte("MW 1 10 2 20 3 30"), &req); err != nil {
		t.Fatal(err)
	}
	keys, vals := &req.Keys[0], &req.Vals[0]
	if err := ParseRequest([]byte("MW 4 40 5 50"), &req); err != nil {
		t.Fatal(err)
	}
	if &req.Keys[0] != keys || &req.Vals[0] != vals {
		t.Fatal("ParseRequest reallocated the request slices")
	}
	line := []byte("T 1 2 50")
	allocs := testing.AllocsPerRun(100, func() {
		if err := ParseRequest(line, &req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("ParseRequest allocates %.1f/op on a warm request, want 0", allocs)
	}
}

// FuzzParseRequest: ParseRequest must not panic on any line, and a line it
// accepts must survive AppendRequest → ParseRequest unchanged.
func FuzzParseRequest(f *testing.F) {
	for _, tc := range parseRequestCases {
		f.Add(tc.line)
	}
	for _, tc := range parseRequestErrorCases {
		f.Add(tc.line)
	}
	for _, req := range roundTripRequests {
		line, err := AppendRequest(nil, &req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(line))
	}
	f.Fuzz(func(t *testing.T, line string) {
		var req, back Request
		if ParseRequest([]byte(line), &req) != nil {
			return
		}
		enc, err := AppendRequest(nil, &req)
		if err != nil {
			t.Fatalf("AppendRequest(%+v) of parsed %q: %v", req, line, err)
		}
		if err := ParseRequest(enc, &back); err != nil {
			t.Fatalf("ParseRequest(%q) re-encoded from %q: %v", enc, line, err)
		}
		if got, want := normRequest(back), normRequest(req); !reflect.DeepEqual(got, want) {
			t.Fatalf("%q → %+v → %q → %+v", line, want, enc, got)
		}
	})
}

// FuzzParseResponse: ParseResponse must not panic on any line, and a line it
// accepts must survive AppendResponse → ParseResponse unchanged.
func FuzzParseResponse(f *testing.F) {
	for _, resp := range roundTripResponses {
		f.Add(string(AppendResponse(nil, &resp)))
	}
	f.Add("WAT 1")
	f.Add("OK foo bar")
	f.Fuzz(func(t *testing.T, line string) {
		var resp, back Response
		if ParseResponse([]byte(line), &resp) != nil {
			return
		}
		enc := AppendResponse(nil, &resp)
		if err := ParseResponse(enc, &back); err != nil {
			t.Fatalf("ParseResponse(%q) re-encoded from %q: %v", enc, line, err)
		}
		if got, want := normResponse(back), normResponse(resp); !reflect.DeepEqual(got, want) {
			t.Fatalf("%q → %+v → %q → %+v", line, want, enc, got)
		}
	})
}
