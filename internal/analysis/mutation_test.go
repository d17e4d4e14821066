package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// Mutation tests: each case is a faithful copy of a real call site from
// the tree, paired with a broken variant seeded with the exact bug class
// the analyzer exists to catch. The clean copy must produce zero active
// findings (no false positive on the real pattern) and the mutant must
// be caught (no false negative on its breakage). If an analyzer is ever
// weakened to the point of missing the seeded bug, the pair goes red.

type mutationCase struct {
	name     string
	analyzer *Analyzer
	want     *regexp.Regexp // matched against the mutant's findings
	clean    string
	mutant   string
}

func runMutationSrc(t *testing.T, a *Analyzer, importPath, src string) []Diagnostic {
	t.Helper()
	l := sharedLoader(t)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "mut.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := l.CheckDir(importPath, dir)
	if err != nil {
		t.Fatalf("type-checking mutation source: %v", err)
	}
	diags, err := Run([]*Package{pkg}, []*Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	return diags
}

func TestMutations(t *testing.T) {
	for _, tc := range mutationCases {
		t.Run(tc.name, func(t *testing.T) {
			clean := runMutationSrc(t, tc.analyzer, "shield5g/mutation/"+tc.name+"/clean", tc.clean)
			for _, d := range Active(clean) {
				t.Errorf("clean copy of the real call site was flagged: %s", d)
			}
			mutant := runMutationSrc(t, tc.analyzer, "shield5g/mutation/"+tc.name+"/mutant", tc.mutant)
			hit := false
			for _, d := range Active(mutant) {
				if tc.want.MatchString(d.Message) {
					hit = true
				}
			}
			if !hit {
				t.Errorf("seeded bug not caught: no active %s finding matching %q (got %d findings)",
					tc.analyzer.Name, tc.want, len(Active(mutant)))
				for _, d := range Active(mutant) {
					t.Logf("  finding: %s", d)
				}
			}
		})
	}
}

var mutationCases = []mutationCase{
	{
		// paka.Module.Restart holds restartMu for the whole redeploy and
		// takes the platform's backup lock (sgx.Enclave.Backups copies the
		// sealed files) and rtMu (to swap the runtime) under it;
		// ProvisionSubscriber takes the backup lock alone (SealBackup).
		// Mutant: ProvisionSubscriber fences restarts out while it already
		// holds the backup lock — the opposite nesting.
		name:     "module-restart-lock-swap",
		analyzer: LockOrder,
		want:     regexp.MustCompile("inconsistent lock nesting"),
		clean: `package mut

import "sync"

type module struct {
	restartMu sync.Mutex
	backupMu  sync.Mutex
	rtMu      sync.RWMutex
	backups   map[string][]byte
	runtime   int
}

func (m *module) restart() {
	m.restartMu.Lock()
	defer m.restartMu.Unlock()
	m.backupMu.Lock()
	backups := make(map[string][]byte, len(m.backups))
	for name, blob := range m.backups {
		backups[name] = blob
	}
	m.backupMu.Unlock()
	m.rtMu.Lock()
	m.runtime += len(backups)
	m.rtMu.Unlock()
}

func (m *module) provisionSubscriber(name string) {
	m.backupMu.Lock()
	m.backups[name] = nil
	m.backupMu.Unlock()
}
`,
		mutant: `package mut

import "sync"

type module struct {
	restartMu sync.Mutex
	backupMu  sync.Mutex
	rtMu      sync.RWMutex
	backups   map[string][]byte
	runtime   int
}

func (m *module) restart() {
	m.restartMu.Lock()
	defer m.restartMu.Unlock()
	m.backupMu.Lock()
	backups := make(map[string][]byte, len(m.backups))
	for name, blob := range m.backups {
		backups[name] = blob
	}
	m.backupMu.Unlock()
	m.rtMu.Lock()
	m.runtime += len(backups)
	m.rtMu.Unlock()
}

func (m *module) provisionSubscriber(name string) {
	m.backupMu.Lock()
	m.restartMu.Lock()
	m.backups[name] = nil
	m.restartMu.Unlock()
	m.backupMu.Unlock()
}
`,
	},
	{
		// deploy.Slice.ResilienceStats merges every resilient invoker's
		// counters under resilMu. Mutant: a second Lock where the loop
		// starts re-acquires a mutex the goroutine already holds — a
		// guaranteed self-deadlock.
		name:     "slice-resilience-stats-recursive-lock",
		analyzer: LockOrder,
		want:     regexp.MustCompile("recursive lock"),
		clean: `package mut

import "sync"

type stats struct{ retries int }

func (a *stats) merge(b stats) { a.retries += b.retries }

type slice struct {
	resilMu    sync.Mutex
	resilients []stats
}

func (s *slice) resilienceStats() stats {
	var out stats
	s.resilMu.Lock()
	for _, r := range s.resilients {
		out.merge(r)
	}
	s.resilMu.Unlock()
	return out
}
`,
		mutant: `package mut

import "sync"

type stats struct{ retries int }

func (a *stats) merge(b stats) { a.retries += b.retries }

type slice struct {
	resilMu    sync.Mutex
	resilients []stats
}

func (s *slice) resilienceStats() stats {
	var out stats
	s.resilMu.Lock()
	s.resilMu.Lock()
	for _, r := range s.resilients {
		out.merge(r)
	}
	s.resilMu.Unlock()
	return out
}
`,
	},
}
