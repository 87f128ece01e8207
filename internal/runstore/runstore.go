// Package runstore archives run manifests under a content-addressed
// directory and diffs archived runs, so bench and accuracy regressions
// are diagnosable from artifacts instead of reruns.
//
// A run's identity is the SHA-256 of its canonicalized resolved config
// (JSON with sorted keys — the seed is part of the config, so the key is
// (config, seed) by construction), truncated to 12 hex digits. Archiving
// the same configuration twice overwrites in place: bit-identical
// configs name bit-identical runs.
package runstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"fase/internal/obs"
)

// IDLen is the truncated hex length of a run id.
const IDLen = 12

// Store is a directory of archived run manifests, one <id>.json each.
type Store struct{ Dir string }

// Open returns a store rooted at dir, creating the directory on first
// use.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("runstore: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runstore: create %s: %w", dir, err)
	}
	return &Store{Dir: dir}, nil
}

// ConfigID computes the content address of a resolved config: the
// SHA-256 of its canonical JSON (marshal → unmarshal into interface{} →
// marshal again, so struct-produced and file-round-tripped configs — whose
// Go types differ — hash identically; encoding/json sorts map keys).
func ConfigID(config any) (string, error) {
	raw, err := json.Marshal(config)
	if err != nil {
		return "", fmt.Errorf("runstore: marshal config: %w", err)
	}
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		return "", fmt.Errorf("runstore: canonicalize config: %w", err)
	}
	canon, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("runstore: canonicalize config: %w", err)
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:])[:IDLen], nil
}

// Entry is one archived run.
type Entry struct {
	ID          string
	Path        string
	CreatedUnix int64
}

// Add archives a manifest, returning its entry. Same config → same id →
// overwrite in place.
func (s *Store) Add(m *obs.Manifest) (Entry, error) {
	id, err := ConfigID(m.Config)
	if err != nil {
		return Entry{}, err
	}
	path := filepath.Join(s.Dir, id+".json")
	if err := m.WriteFile(path); err != nil {
		return Entry{}, err
	}
	return Entry{ID: id, Path: path, CreatedUnix: m.CreatedUnix}, nil
}

// List returns the archived runs, most recently created first (ties
// break on id so the order is total).
func (s *Store) List() ([]Entry, error) {
	glob, err := filepath.Glob(filepath.Join(s.Dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []Entry
	for _, path := range glob {
		id := strings.TrimSuffix(filepath.Base(path), ".json")
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		m, err := obs.ReadManifest(data)
		if err != nil {
			return nil, fmt.Errorf("runstore: %s: %w", path, err)
		}
		out = append(out, Entry{ID: id, Path: path, CreatedUnix: m.CreatedUnix})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].CreatedUnix != out[b].CreatedUnix {
			return out[a].CreatedUnix > out[b].CreatedUnix
		}
		return out[a].ID < out[b].ID
	})
	return out, nil
}

// Resolve turns a run reference into a manifest. Three forms are
// accepted: a file path to a manifest (used as-is), "@N" (the Nth most
// recent archived run — @0 is the newest), and an id or unique id
// prefix. A reference that is a path (it contains a path separator or
// ends in .json, which ids never do) but names no manifest file fails
// with an error wrapping fs.ErrNotExist, without listing the store: a
// content-addressed lookup by path stays O(1) whether it hits or misses.
func (s *Store) Resolve(ref string) (*obs.Manifest, string, error) {
	st, err := os.Stat(ref)
	if err == nil && !st.IsDir() {
		m, err := readManifestFile(ref)
		return m, ref, err
	}
	if filepath.Base(ref) != ref || strings.HasSuffix(ref, ".json") {
		if err == nil {
			err = fmt.Errorf("%s is a directory", ref)
		}
		return nil, "", fmt.Errorf("runstore: resolve: %w", err)
	}
	if n, ok := strings.CutPrefix(ref, "@"); ok {
		idx, err := strconv.Atoi(n)
		if err != nil || idx < 0 {
			return nil, "", fmt.Errorf("runstore: bad run reference %q (want @N, N ≥ 0)", ref)
		}
		entries, err := s.List()
		if err != nil {
			return nil, "", err
		}
		if idx >= len(entries) {
			return nil, "", fmt.Errorf("runstore: reference %s but the store holds only %d run(s)", ref, len(entries))
		}
		m, err := readManifestFile(entries[idx].Path)
		return m, entries[idx].ID, err
	}
	entries, err := s.List()
	if err != nil {
		return nil, "", err
	}
	var hits []Entry
	for _, e := range entries {
		if strings.HasPrefix(e.ID, ref) {
			hits = append(hits, e)
		}
	}
	switch len(hits) {
	case 0:
		return nil, "", fmt.Errorf("runstore: no archived run matches %q", ref)
	case 1:
		m, err := readManifestFile(hits[0].Path)
		return m, hits[0].ID, err
	default:
		ids := make([]string, len(hits))
		for i, e := range hits {
			ids[i] = e.ID
		}
		return nil, "", fmt.Errorf("runstore: reference %q is ambiguous: %s", ref, strings.Join(ids, ", "))
	}
}

func readManifestFile(path string) (*obs.Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return obs.ReadManifest(data)
}
