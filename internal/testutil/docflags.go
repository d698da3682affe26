package testutil

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFlagSources are the files, relative to the repository root, whose
// command lines CheckDocFlags holds to a binary's real flag set: the prose,
// the smoke scripts, CI, and the package header comments that show usage.
var docFlagSources = []string{
	"README.md", "docs/*.md", "scripts/*.sh", ".github/workflows/*.yml",
	".claude/skills/verify/SKILL.md", "cmd/*/main.go", "examples/*/main.go",
}

// binaryName matches an invocation of either shipped socket binary; a
// command line runs from one such match to the next, or to the first shell
// or markdown terminator.
var binaryName = regexp.MustCompile(`\bknn(node|query)\b`)

// CheckDocFlags scans the documented command lines of binary (root is the
// repository root as seen from the calling test) and fails for every
// -flag that fs does not define, so a retired or renamed flag cannot
// survive in a README, script or header comment.
func CheckDocFlags(t *testing.T, root, binary string, fs *flag.FlagSet) {
	t.Helper()
	lines := 0
	for _, pattern := range docFlagSources {
		files, err := filepath.Glob(filepath.Join(root, pattern))
		if err != nil || len(files) == 0 {
			t.Fatalf("doc source %q matches nothing (err=%v)", pattern, err)
		}
		for _, file := range files {
			text, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			// A trailing backslash continues a shell command line.
			joined := strings.ReplaceAll(string(text), "\\\n", " ")
			for _, line := range strings.Split(joined, "\n") {
				for _, m := range binaryName.FindAllStringIndex(line, -1) {
					if line[m[0]:m[1]] != binary {
						continue
					}
					args := line[m[1]:]
					if next := binaryName.FindStringIndex(args); next != nil {
						args = args[:next[0]]
					}
					if end := strings.IndexAny(args, "`|&;>#()"); end >= 0 {
						args = args[:end]
					}
					lines++
					for _, tok := range strings.Fields(args) {
						tok = strings.Trim(tok, `"',.:`)
						name, _, _ := strings.Cut(strings.TrimLeft(tok, "-"), "=")
						if !strings.HasPrefix(tok, "-") || name == "" || name[0] < 'a' || name[0] > 'z' {
							continue
						}
						if fs.Lookup(name) == nil {
							t.Errorf("%s: %q passes -%s, which %s does not define", file, strings.TrimSpace(line), name, binary)
						}
					}
				}
			}
		}
	}
	if lines == 0 {
		t.Errorf("no %s command line found — has the form this test scans for changed?", binary)
	}
}
