package obs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestManifestWriteFileReplacesAtomically: the manifest, journal and
// trace writers must replace the file at path with a new one (write a
// temporary, rename it over path), never rewrite the existing file in
// place, where a crash, a failed write or a second writer could leave it
// torn. A hard link to the old file still reads the old contents
// afterwards, and no temporary is left behind.
func TestManifestWriteFileReplacesAtomically(t *testing.T) {
	journal := func(run string) *Journal {
		j := NewJournal()
		j.Track(0).Emit(Event{Kind: EventCampaignStart, Name: run})
		j.Track(0).Emit(Event{Kind: EventDetection, Name: run})
		return j
	}
	for _, tc := range []struct {
		name  string
		write func(path, run string) error
	}{
		{"manifest", func(path, run string) error {
			return (&Manifest{Schema: ManifestSchema, Config: map[string]any{"run": run}}).WriteFile(path)
		}},
		{"journal", func(path, run string) error { return journal(run).WriteJSONLFile(path) }},
		{"trace", func(path, run string) error { return journal(run).WriteChromeTraceFile(path) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "out")
			if err := tc.write(path, "run-A"); err != nil {
				t.Fatal(err)
			}
			link := filepath.Join(dir, "link")
			if err := os.Link(path, link); err != nil {
				t.Skipf("hard links unsupported here: %v", err)
			}
			if err := tc.write(path, "run-B"); err != nil {
				t.Fatal(err)
			}
			read := func(p string) string {
				t.Helper()
				data, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				return string(data)
			}
			if got := read(link); !strings.Contains(got, "run-A") || strings.Contains(got, "run-B") {
				t.Errorf("old file now holds %q: the writer rewrote it in place", got)
			}
			if got := read(path); !strings.Contains(got, "run-B") {
				t.Errorf("path holds %q, want the new contents", got)
			}
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if st.Mode().Perm() != 0o644 {
				t.Errorf("written file mode %v, want 0644", st.Mode().Perm())
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
				t.Errorf("directory holds %v, want only the file and the link", names)
			}
		})
	}
}
