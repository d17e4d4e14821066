package codec

// The JSON fast paths without their encoding/json fallback, so the
// differential tests can tell which inputs stay on them.
var (
	FastAppendJSON = appendJSON
	FastDecodeJSON = decodeJSON
)
