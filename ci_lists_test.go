package tippers

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunListsNameTests: every alternative of every `go test -run`
// pattern in the CI workflow and in verify.sh matches a test function
// in the packages that command tests. go test runs nothing for a
// pattern that matches nothing and passes, so a renamed test would
// otherwise drop out of its race step unnoticed.
func TestCIRunListsNameTests(t *testing.T) {
	command := regexp.MustCompile(`go test (.*)-run '([^']*)'(.*)`)
	for _, file := range []string{".github/workflows/ci.yml", "verify.sh"} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		steps := 0
		for _, line := range strings.Split(string(data), "\n") {
			m := command.FindStringSubmatch(line)
			if m == nil || strings.HasPrefix(strings.TrimSpace(line), "#") || m[2] == "^$" {
				continue
			}
			steps++
			var pkgs []string
			for _, f := range strings.Fields(m[1] + " " + m[3]) {
				if strings.HasPrefix(f, ".") {
					pkgs = append(pkgs, f)
				}
			}
			names := testNames(t, pkgs)
			for _, alt := range strings.Split(m[2], "|") {
				rx, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("%s: -run alternative %q: %v", file, alt, err)
					continue
				}
				found := false
				for _, n := range names {
					if found = rx.MatchString(n); found {
						break
					}
				}
				if !found {
					t.Errorf("%s: -run alternative %q names no test in %v", file, alt, pkgs)
				}
			}
		}
		if steps == 0 {
			t.Errorf("%s: no go test -run command found", file)
		}
	}
}

// testNames lists the test, benchmark, fuzz and example functions in
// the packages of go test's patterns: a directory, or one ending in
// /... for the directory and everything under it.
func testNames(t *testing.T, pkgs []string) []string {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz|Example)\w*)\(`)
	var names []string
	for _, pkg := range pkgs {
		dir, recursive := strings.CutSuffix(pkg, "/...")
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path != dir && !recursive {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, "_test.go") {
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
				names = append(names, m[1])
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return names
}
