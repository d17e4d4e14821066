// Command shieldlint runs the repository's static-analysis suite (see
// internal/analysis): determinism and secretflow. It exits non-zero when
// any unsuppressed finding remains, which makes it a CI gate:
//
//	go run ./tools/shieldlint ./...          # the `make lint` entry point
//	go run ./tools/shieldlint -v ./internal/gnb
//	go run ./tools/shieldlint -show-suppressed ./...
//	go run ./tools/shieldlint -format=github ./...   # GitHub Actions annotations
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"shield5g/internal/analysis"
)

func main() {
	verbose := flag.Bool("v", false, "print per-analyzer summary")
	showSuppressed := flag.Bool("show-suppressed", false, "also print annotation-suppressed findings")
	only := flag.String("only", "", "run a single analyzer by name")
	format := flag.String("format", "text", "output format: text or github (::error workflow annotations)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: shieldlint [flags] [packages]\n\nAnalyzers:\n")
		for _, a := range analysis.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	if *format != "text" && *format != "github" {
		fmt.Fprintf(os.Stderr, "shieldlint: unknown format %q (want text or github)\n", *format)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	analyzers := analysis.Analyzers()
	if *only != "" {
		a := analysis.ByName(*only)
		if a == nil {
			fmt.Fprintf(os.Stderr, "shieldlint: unknown analyzer %q\n", *only)
			os.Exit(2)
		}
		analyzers = []*analysis.Analyzer{a}
	}

	root, err := analysis.ModuleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "shieldlint:", err)
		os.Exit(2)
	}
	pkgs, err := analysis.NewLoader(root).Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shieldlint:", err)
		os.Exit(2)
	}

	diags, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shieldlint:", err)
		os.Exit(2)
	}

	perAnalyzer := make(map[string]int)
	active := 0
	for _, d := range diags {
		if d.Suppressed && !*showSuppressed {
			continue
		}
		if !d.Suppressed {
			active++
			perAnalyzer[d.Analyzer]++
		}
		switch {
		case *format == "github":
			// Suppressed findings surface as notices so a reviewer sees
			// the escape hatches without the job failing on them.
			level := "error"
			if d.Suppressed {
				level = "notice"
			}
			fmt.Printf("::%s file=%s,line=%d,col=%d,title=shieldlint/%s::%s\n",
				level, relToRoot(root, d.Pos.Filename), d.Pos.Line, d.Pos.Column,
				d.Analyzer, githubEscape(d.Message))
		case d.Suppressed:
			fmt.Printf("%s [suppressed by annotation]\n", d)
		default:
			fmt.Println(d)
		}
	}

	if *verbose {
		fmt.Fprintf(os.Stderr, "shieldlint: %d package(s) analyzed\n", len(pkgs))
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-14s %d finding(s)\n", a.Name, perAnalyzer[a.Name])
		}
	}
	if active > 0 {
		fmt.Fprintf(os.Stderr, "shieldlint: %d finding(s)\n", active)
		os.Exit(1)
	}
}

// relToRoot rewrites an absolute position filename relative to the
// module root, which is what both CI annotations and editors expect.
func relToRoot(root, name string) string {
	if rel, err := filepath.Rel(root, name); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return name
}

// githubEscape encodes the characters the workflow-command parser
// treats as delimiters inside an annotation message.
func githubEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	return strings.ReplaceAll(s, "\n", "%0A")
}
