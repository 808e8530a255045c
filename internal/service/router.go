// The multi-study router: one live aggregate per vantage point behind the
// same query API. A Router nests whole Servers under /studies/{id}/ — every
// per-study endpoint (ingest, figures, query, healthz, ...) keeps its exact
// single-study behaviour — and aliases the default study's routes at the
// root, so single-study clients keep working against a routed deployment.
package service

import (
	"fmt"
	"net/http"
	"strings"
)

// Router hosts named studies under /studies/{id}/ and the default study at
// the legacy root routes.
//
//	GET  /studies                 list hosted studies with live counts
//	GET  /studies/{id}            one study's counts (healthz shape + id)
//	ANY  /studies/{id}/...        the study's full Server API
//	ANY  /...                     alias for the default study (legacy routes)
//
// Add is not safe to call concurrently with request serving; assemble the
// router before listening, like an http.ServeMux.
type Router struct {
	mux       *http.ServeMux
	ids       []string // insertion order, for stable listings
	servers   map[string]*Server
	defaultID string
}

// NewRouter builds an empty router; the first study added becomes the
// default.
func NewRouter() *Router {
	rt := &Router{
		mux:     http.NewServeMux(),
		servers: make(map[string]*Server),
	}
	rt.mux.HandleFunc("GET /studies", rt.handleList)
	// Registered method-agnostic: a POST to /studies/{id} (say, a /query
	// with the suffix forgotten) must answer "wrong method, the API lives
	// under /studies/{id}/..." — not fall through to the root catch-all and
	// claim the study does not exist.
	rt.mux.HandleFunc("/studies/{id}", rt.handleStudyInfo)
	rt.mux.Handle("/studies/{id}/", http.HandlerFunc(rt.handleStudy))
	rt.mux.Handle("/", http.HandlerFunc(rt.handleDefault))
	return rt
}

// Add mounts srv under /studies/{id}/. IDs are lowercase path segments
// (letters, digits, '-', '_', '.'); the first study added becomes the
// default for the legacy root routes.
func (rt *Router) Add(id string, srv *Server) error {
	if id == "" {
		return fmt.Errorf("service: empty study id")
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if 'a' <= c && c <= 'z' || '0' <= c && c <= '9' || c == '-' || c == '_' || c == '.' {
			continue
		}
		return fmt.Errorf("service: study id %q: bad character %q", id, c)
	}
	if _, dup := rt.servers[id]; dup {
		return fmt.Errorf("service: duplicate study id %q", id)
	}
	rt.servers[id] = srv
	rt.ids = append(rt.ids, id)
	if rt.defaultID == "" {
		rt.defaultID = id
	}
	return nil
}

// Server returns the server hosted under id.
func (rt *Router) Server(id string) (*Server, bool) {
	srv, ok := rt.servers[id]
	return srv, ok
}

// DefaultServer returns the study serving the legacy root routes (nil for
// an empty router).
func (rt *Router) DefaultServer() *Server { return rt.servers[rt.defaultID] }

// IDs lists the hosted study ids in mount order.
func (rt *Router) IDs() []string { return append([]string(nil), rt.ids...) }

// Handler returns the routing HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Close closes every hosted server (TCP listeners, merge queues); the first
// error wins.
func (rt *Router) Close() error {
	var first error
	for _, id := range rt.ids {
		if err := rt.servers[id].Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// studyInfo is one row of the /studies listing.
type studyInfo struct {
	ID         string `json:"id"`
	Default    bool   `json:"default"`
	Records    int    `json:"records"`
	Months     int    `json:"months"`
	Generation uint64 `json:"generation"`
}

func (rt *Router) info(id string) studyInfo {
	records, months, gen, _ := rt.servers[id].Study().Counts()
	return studyInfo{
		ID:         id,
		Default:    id == rt.defaultID,
		Records:    records,
		Months:     months,
		Generation: gen,
	}
}

func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	out := make([]studyInfo, 0, len(rt.ids))
	for _, id := range rt.ids {
		out = append(out, rt.info(id))
	}
	writeJSON(w, http.StatusOK, out)
}

// unknownStudy answers a lookup miss with the valid ids, mirroring the
// figure-name miss shape.
func (rt *Router) unknownStudy(w http.ResponseWriter, id string) {
	writeJSON(w, http.StatusNotFound, map[string]any{
		"error": fmt.Sprintf("no study %q", id),
		"valid": rt.ids,
	})
}

func (rt *Router) handleStudyInfo(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := rt.servers[id]; !ok {
		rt.unknownStudy(w, id)
		return
	}
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{
			"error": fmt.Sprintf("%s on the study root; the study API is under /studies/%s/ (e.g. POST /studies/%s/ingest or /studies/%s/query)",
				r.Method, id, id, id),
		})
		return
	}
	writeJSON(w, http.StatusOK, rt.info(id))
}

// handleStudy strips the /studies/{id} prefix and delegates to the study's
// own Server mux, so nested routes behave exactly like a standalone server.
func (rt *Router) handleStudy(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	srv, ok := rt.servers[id]
	if !ok {
		rt.unknownStudy(w, id)
		return
	}
	http.StripPrefix("/studies/"+id, srv.Handler()).ServeHTTP(w, r)
}

// handleDefault aliases the legacy single-study routes onto the default
// study.
func (rt *Router) handleDefault(w http.ResponseWriter, r *http.Request) {
	srv := rt.DefaultServer()
	if srv == nil {
		writeJSON(w, http.StatusNotFound, map[string]any{
			"error": "router hosts no studies",
			"valid": []string{},
		})
		return
	}
	// /studies/ with a trailing slash but no id lands here via the catch-all;
	// redirecting it into a study would be surprising, so 404 it explicitly.
	if strings.HasPrefix(r.URL.Path, "/studies/") {
		rt.unknownStudy(w, strings.TrimPrefix(r.URL.Path, "/studies/"))
		return
	}
	srv.Handler().ServeHTTP(w, r)
}
