package bench

import (
	"errors"
	"go/build"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestEveryInternalPackageIsImported guards against orphan packages:
// every non-main package under internal/ must be imported by at least
// one non-test package of this repository (commands, examples and
// perfbench included). Test-support packages, whose name ends in "test",
// are exempt. Imports are read with go/build, so build constraints apply
// and no go command runs.
func TestEveryInternalPackageIsImported(t *testing.T) {
	mod, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	first, _, _ := strings.Cut(string(mod), "\n")
	modPath, ok := strings.CutPrefix(strings.TrimSpace(first), "module ")
	if !ok {
		t.Fatalf("go.mod does not start with a module line: %q", first)
	}

	imported := map[string]bool{}
	var internal []*build.Package
	err = filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		for _, imp := range bp.Imports {
			imported[imp] = true
		}
		rel := filepath.ToSlash(dir)
		if strings.HasPrefix(rel, "internal/") && bp.Name != "main" && !strings.HasSuffix(bp.Name, "test") {
			bp.ImportPath = path.Join(modPath, rel)
			internal = append(internal, bp)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(internal) == 0 {
		t.Fatal("found no packages under internal/")
	}
	var orphans []string
	for _, bp := range internal {
		if !imported[bp.ImportPath] {
			orphans = append(orphans, bp.ImportPath)
		}
	}
	sort.Strings(orphans)
	for _, p := range orphans {
		t.Errorf("%s is imported by no non-test package: delete it or use it", p)
	}
}
