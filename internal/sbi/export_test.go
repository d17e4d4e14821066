package sbi

import (
	"os"
	"sort"
	"testing"
)

// WrapHandlers replaces every registered handler of s by wrap(path, h),
// so a test can observe what a deployed server is asked and answers.
func WrapHandlers(s *Server, wrap func(path string, h HandlerFunc) HandlerFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for path, r := range s.routes {
		r.h = wrap(path, r.h)
		s.routes[path] = r
	}
}

// TestMain turns the body-pool audit on (see audit.go) for every test of
// this package, so tier-1 `go test` checks pooled-body ownership without
// -race.
func TestMain(m *testing.M) {
	auditPool = true
	os.Exit(m.Run())
}

// Route is one registered endpoint as its registration recorded it: typed
// nil pointers to the request and response an Endpoint registered, both
// nil for a raw HandleDual handler.
type Route struct {
	Path      string
	Req, Resp any
}

// Routes lists s's endpoints, sorted by path.
func Routes(s *Server) []Route {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Route, 0, len(s.routes))
	for path, r := range s.routes {
		out = append(out, Route{Path: path, Req: r.req, Resp: r.resp})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}
