package main

import (
	"os"
	"path/filepath"
	"testing"
)

// nonEmpty fails the test unless path holds a non-empty file.
func nonEmpty(t *testing.T, path string) {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatalf("profile not written: %v", err)
	}
	if st.Size() == 0 {
		t.Fatalf("%s is empty", filepath.Base(path))
	}
}

// TestCheckModeWritesProfiles: -check returns from its own branch, so
// profiling must start before mode dispatch and flush on return.
func TestCheckModeWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	if code := run([]string{"-quick", "-check", "-cpuprofile", cpu, "-memprofile", mem, "table3"}); code != 0 {
		t.Fatalf("exit code %d", code)
	}
	nonEmpty(t, cpu)
	nonEmpty(t, mem)
}

// TestFailedRunStillWritesProfile: error exits flush the profile too.
func TestFailedRunStillWritesProfile(t *testing.T) {
	cpu := filepath.Join(t.TempDir(), "cpu.prof")
	if code := run([]string{"-quick", "-cpuprofile", cpu, "no-such-experiment"}); code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	nonEmpty(t, cpu)
}
