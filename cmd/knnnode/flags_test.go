package main

import (
	"flag"
	"testing"

	"distknn/internal/testutil"
)

// TestDocsUseDefinedFlags keeps the prose honest: every knnnode command
// line in the README, docs, scripts, CI, SKILL.md and the package header
// comments may only pass flags that defineFlags declares.
func TestDocsUseDefinedFlags(t *testing.T) {
	fs := flag.NewFlagSet("knnnode", flag.ContinueOnError)
	defineFlags(fs)
	testutil.CheckDocFlags(t, "../..", "knnnode", fs)
}
