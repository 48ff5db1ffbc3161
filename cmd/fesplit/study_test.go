package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestStudyDiurnalRejectsNonPositiveHorizon: a zero or negative
// -horizon fails before anything runs, instead of silently running the
// library's default horizon under the flag's value.
func TestStudyDiurnalRejectsNonPositiveHorizon(t *testing.T) {
	for _, h := range []string{"0s", "-1m"} {
		dir := filepath.Join(t.TempDir(), "out")
		err := cmdStudy([]string{"-diurnal", "-clients", "10", "-horizon", h, "-dir", dir})
		if err == nil || !strings.Contains(err.Error(), "-horizon > 0") {
			t.Fatalf("-horizon %s: got error %v, want a -horizon > 0 rejection", h, err)
		}
		if _, statErr := os.Stat(dir); !os.IsNotExist(statErr) {
			t.Fatalf("-horizon %s: output directory created before validation", h)
		}
	}
}
