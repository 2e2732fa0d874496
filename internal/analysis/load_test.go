package analysis

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// TestWalkGoDirsSkips pins which directories the ./... walk loads: package
// directories of the module, but not testdata, vendor, hidden or
// _-prefixed directories, nor a nested module (and anything under it).
func TestWalkGoDirsSkips(t *testing.T) {
	root := t.TempDir()
	files := []struct {
		path string
		load bool // the directory holding path is walked
	}{
		{"go.mod", false},
		{"root.go", true},
		{"pkg/a.go", true},
		{"pkg/deep/b.go", true},
		{"pkg/testdata/c.go", false},
		{"vendor/x/d.go", false},
		{".hidden/e.go", false},
		{"_bench/f.go", false},
		{"nested/go.mod", false},
		{"nested/g.go", false},
		{"nested/sub/h.go", false},
		{"pkg/inner/go.mod", false},
		{"pkg/inner/i.go", false},
		{"docs/readme.txt", false},
	}
	var want []string
	for _, f := range files {
		p := filepath.Join(root, filepath.FromSlash(f.path))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte("package x\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if f.load {
			want = append(want, filepath.Dir(p))
		}
	}
	var got []string
	if err := walkGoDirs(root, func(dir string) { got = append(got, dir) }); err != nil {
		t.Fatal(err)
	}
	// add may see a directory once per .go file; the loader dedups.
	seen := map[string]bool{}
	var uniq []string
	for _, d := range got {
		if !seen[d] {
			seen[d] = true
			uniq = append(uniq, d)
		}
	}
	sort.Strings(uniq)
	sort.Strings(want)
	if !reflect.DeepEqual(uniq, want) {
		t.Errorf("walked %v\nwant     %v", uniq, want)
	}
}
