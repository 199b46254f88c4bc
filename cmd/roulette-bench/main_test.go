package main

import "testing"

func TestFigureNamesUnique(t *testing.T) {
	seen := map[string]bool{"all": true} // "all" selects every figure
	for _, f := range figures {
		if seen[f.name] {
			t.Errorf("figure name %q is listed twice or reserved", f.name)
		}
		seen[f.name] = true
	}
}

func TestUnknownFigureExitsTwo(t *testing.T) {
	if code := realMain([]string{"-fig", "no-such-figure"}); code != 2 {
		t.Errorf("exit code = %d, want 2", code)
	}
}
