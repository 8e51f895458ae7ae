package main

import (
	"strings"
	"testing"

	"asfstack"
)

// TestRuntimeHelpListsEveryRuntime: the -runtime usage text must name every
// runtime the stack accepts, each as its own list item.
func TestRuntimeHelpListsEveryRuntime(t *testing.T) {
	items := map[string]bool{}
	for _, s := range strings.Split(runtimeHelp(), ", ") {
		items[s] = true
	}
	for _, name := range asfstack.RuntimeNames {
		if !items[name] {
			t.Errorf("-runtime help %q does not list %q", runtimeHelp(), name)
		}
	}
}
