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
		// D1: sbi.ResilientClient.Post feeds its per-service breaker the
		// request's virtual time, so a breaker's cooldown replays with the
		// seed. Mutant: Allow and OnFailure read the wall clock instead.
		// Every tier-1 test passes on it (no test trips a breaker's cooldown
		// against a replayed run); only the analyzer sees it.
		name:     "breaker-wall-clock-cooldown",
		analyzer: Determinism,
		want:     regexp.MustCompile(`time\.Since reads the wall clock`),
		clean: `package mut

import (
	"sync"
	"time"
)

const breakerCooldown = 50 * time.Millisecond

type clock struct{ now time.Duration }

func (c *clock) Now() time.Duration { return c.now }

type breaker struct {
	mu       sync.Mutex
	open     bool
	openedAt time.Duration
}

func (b *breaker) allow(now time.Duration) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.open || now-b.openedAt >= breakerCooldown
}

func (b *breaker) onFailure(now time.Duration) {
	b.mu.Lock()
	b.open, b.openedAt = true, now
	b.mu.Unlock()
}

func post(clk *clock, br *breaker, send func() error) error {
	if !br.allow(clk.Now()) {
		return nil
	}
	err := send()
	if err != nil {
		br.onFailure(clk.Now())
	}
	return err
}
`,
		mutant: `package mut

import (
	"sync"
	"time"
)

const breakerCooldown = 50 * time.Millisecond

var epoch = time.Unix(0, 0)

type breaker struct {
	mu       sync.Mutex
	open     bool
	openedAt time.Duration
}

func (b *breaker) allow(now time.Duration) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.open || now-b.openedAt >= breakerCooldown
}

func (b *breaker) onFailure(now time.Duration) {
	b.mu.Lock()
	b.open, b.openedAt = true, now
	b.mu.Unlock()
}

func post(br *breaker, send func() error) error {
	if !br.allow(time.Since(epoch)) {
		return nil
	}
	err := send()
	if err != nil {
		br.onFailure(time.Since(epoch))
	}
	return err
}
`,
	},
	{
		// SF1: ausf.newChallenge hands K_AUSF from the UDM's answer to the
		// eAUSF's DeriveSE and keeps only K_SEAF. Mutant: it logs K_AUSF on
		// the way, where any co-resident reader of the log has it. Every
		// tier-1 test passes on it; only the analyzer sees it.
		name:     "ausf-challenge-logs-kausf",
		analyzer: SecretFlow,
		want:     regexp.MustCompile(`KAUSF.*log\.Printf`),
		clean: `package mut

type authData struct {
	SUPI  string
	RAND  [16]byte
	KAUSF [32]byte
}

type deriveSERequest struct {
	RAND  [16]byte
	KAUSF [32]byte
	SNN   string
}

func newChallenge(he *authData, snn string, deriveSE func(*deriveSERequest) error) error {
	req := &deriveSERequest{RAND: he.RAND, KAUSF: he.KAUSF, SNN: snn}
	return deriveSE(req)
}
`,
		mutant: `package mut

import "log"

type authData struct {
	SUPI  string
	RAND  [16]byte
	KAUSF [32]byte
}

type deriveSERequest struct {
	RAND  [16]byte
	KAUSF [32]byte
	SNN   string
}

func newChallenge(he *authData, snn string, deriveSE func(*deriveSERequest) error) error {
	log.Printf("challenge for %s: K_AUSF %x", he.SUPI, he.KAUSF)
	req := &deriveSERequest{RAND: he.RAND, KAUSF: he.KAUSF, SNN: snn}
	return deriveSE(req)
}
`,
	},
}
