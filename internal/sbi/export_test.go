package sbi

// WrapHandlers replaces every registered handler of s by wrap(path, h),
// so a test can observe what a deployed server is asked and answers.
func WrapHandlers(s *Server, wrap func(path string, h HandlerFunc) HandlerFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for path, h := range s.handlers {
		s.handlers[path] = wrap(path, h)
	}
}
