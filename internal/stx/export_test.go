package stx

// Streams reports whether AppendTransform takes its single pass over src
// rather than the tree.
func Streams(s *Stylesheet, src []byte) bool {
	_, ok := s.stream(nil, string(src))
	return ok
}
