package sbi

import (
	"os"
	"testing"
)

// WrapHandlers replaces every registered handler of s by wrap(path, h),
// so a test can observe what a deployed server is asked and answers.
func WrapHandlers(s *Server, wrap func(path string, h HandlerFunc) HandlerFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for path, h := range s.handlers {
		s.handlers[path] = wrap(path, h)
	}
}

// TestMain turns the body-pool audit on (see audit.go) for every test of
// this package, so tier-1 `go test` checks pooled-body ownership without
// -race.
func TestMain(m *testing.M) {
	auditPool = true
	os.Exit(m.Run())
}
