package main

import (
	"flag"
	"testing"

	"distknn/internal/testutil"
)

// TestDocsUseDefinedFlags keeps the prose honest: every knnquery command
// line in the README, docs, scripts, CI, SKILL.md and the package header
// comments may only pass flags that defineFlags declares.
func TestDocsUseDefinedFlags(t *testing.T) {
	fs := flag.NewFlagSet("knnquery", flag.ContinueOnError)
	defineFlags(fs)
	testutil.CheckDocFlags(t, "../..", "knnquery", fs)
}
