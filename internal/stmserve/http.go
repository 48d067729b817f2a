package stmserve

import (
	"encoding/json"
	"net/http"

	"repro/internal/engine"
)

// NewHTTPHandler exposes svc over HTTP/JSON — the debuggable, curl-able
// face of the service (the line protocol is the fast one):
//
//	POST /op       body Request (JSON) → Response (JSON)
//	GET  /engines  → []engine.Info: every registered backend with its
//	               capability flags, from the registry's introspection API
//	GET  /stats    → Stats for this service instance
//	GET  /healthz  → 200 "ok"
//
// HTTP has no connection affinity worth preserving, so each request opens a
// Session and closes it. In ModeThread the closed session hands its engine
// Thread on, so the Thread count tracks the peak concurrent request count;
// in ModePool the request borrows one of the GOMAXPROCS Threads.
func NewHTTPHandler(svc *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /op", func(w http.ResponseWriter, r *http.Request) {
		var req Request
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		sess := svc.Session()
		var resp Response
		sess.Exec(&req, &resp) // failure is already in resp.Err
		sess.Close()
		writeJSON(w, &resp)
	})
	mux.HandleFunc("GET /engines", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, engine.Infos())
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, svc.Stats())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}
