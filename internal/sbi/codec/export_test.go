package codec

// The JSON fast paths without their encoding/json fallback, so the
// differential tests can tell which inputs stay on them.
var (
	FastAppendJSON = appendJSON
	FastDecodeJSON = decodeJSON
)

// Compact is compact into a fresh backing, for the tests of its ownership.
func Compact(fields ...*[]byte) { compact(nil, fields) }

// Ptr is KeptPtr without kept storage, for the descriptions of this
// package's tests.
func Ptr[T any, PT interface {
	*T
	Message
}](f *Fields, name string, p **T, fl Flag) {
	KeptPtr[T, PT](f, name, p, fl, nil)
}
