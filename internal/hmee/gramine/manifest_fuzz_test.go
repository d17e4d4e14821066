package gramine

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzParseManifest feeds the manifest parser hostile bytes: it must never
// panic, and whatever it accepts must pass Validate and survive
// Encode -> ParseManifest unchanged (compared in the encoded form, where a
// nil and an empty file list are the same manifest).
func FuzzParseManifest(f *testing.F) {
	variants := []func(*Manifest){
		func(*Manifest) {},
		func(m *Manifest) { m.Exitless, m.MaxThreads = true, HelperThreads+2 },
		func(m *Manifest) { m.SwitchlessECalls, m.MaxThreads = true, HelperThreads+2 },
		func(m *Manifest) { m.SwitchlessECalls = true }, // too few threads: rejected
		func(m *Manifest) {
			m.TrustedFiles = []TrustedFile{{URI: "file:/lib/x.so", Size: 42}}
			m.AllowedFiles = []string{"/etc/hosts"}
			m.Env = map[string]string{"MODE": "sgx"}
		},
	}
	for _, mutate := range variants {
		m := DefaultManifest("/app/eudm-aka")
		mutate(m)
		seed, err := json.Marshal(m) // not Encode: the invalid variant is a seed too
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Add([]byte(`{"entrypoint":"a","enclave_size_bytes":1024,"max_threads":4,"trusted_files":[],"env":{},"max_threads":9}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseManifest(data)
		if err != nil {
			if m != nil {
				t.Fatalf("ParseManifest returned a manifest alongside error %v", err)
			}
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted manifest fails Validate: %v", err)
		}
		enc, err := m.Encode()
		if err != nil {
			t.Fatalf("accepted manifest does not encode: %v", err)
		}
		back, err := ParseManifest(enc)
		if err != nil {
			t.Fatalf("encoded manifest does not parse back: %v\n%s", err, enc)
		}
		again, err := back.Encode()
		if err != nil || !bytes.Equal(enc, again) {
			t.Fatalf("manifest changed across Encode -> ParseManifest (err %v):\n%s\nvs\n%s", err, enc, again)
		}
	})
}
