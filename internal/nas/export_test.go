package nas

import (
	"os"
	"testing"
)

// TestMain turns the PDU audit on (see pdu.go) for every test of this
// package, so tier-1 `go test` checks PDU ownership without -race. The
// package's benchmarks run with it too: their ns/op include the poison
// fill and check; their allocs/op do not move.
func TestMain(m *testing.M) {
	auditPDUs = true
	os.Exit(m.Run())
}
