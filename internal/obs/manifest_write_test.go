package obs

import (
	"os"
	"path/filepath"
	"testing"
)

// TestManifestWriteFileReplacesAtomically: WriteFile must replace the
// file at path with a new one (write a temporary, rename it over path),
// never rewrite the existing file in place, where a crash or a second
// writer could leave it torn. A hard link to the old file still reads
// the old manifest afterwards, and no temporary is left behind.
func TestManifestWriteFileReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.json")
	a := &Manifest{Schema: ManifestSchema, CreatedUnix: 1, Config: map[string]any{"run": "A"}}
	b := &Manifest{Schema: ManifestSchema, CreatedUnix: 2, Config: map[string]any{"run": "B"}}
	if err := a.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	link := filepath.Join(dir, "link")
	if err := os.Link(path, link); err != nil {
		t.Skipf("hard links unsupported here: %v", err)
	}
	if err := b.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	read := func(p string) int64 {
		t.Helper()
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ReadManifest(data)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		return m.CreatedUnix
	}
	if got := read(link); got != 1 {
		t.Errorf("old file now holds manifest %d: WriteFile rewrote it in place", got)
	}
	if got := read(path); got != 2 {
		t.Errorf("path holds manifest %d, want the new one", got)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode().Perm() != 0o644 {
		t.Errorf("written manifest mode %v, want 0644", st.Mode().Perm())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Errorf("directory holds %v, want only the manifest and the link", names)
	}
}
