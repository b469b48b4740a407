// Package ledger persists completed simulation runs as a
// content-addressed, append-only store, so cross-run comparison — the
// substance of every figure in the paper — works by run identity
// instead of by fragile file paths.
//
// Every run is recorded under an ID derived from what determines its
// results: the full configuration (which carries the seed and the
// warmup/measured window), the workload spec, and the simulator
// version. Two runs of the same (config, workload, seed) on the same
// simulator therefore share an ID, which is exactly the dedupe rule:
// re-recording a known run is a no-op, and a harness that checks the
// ledger before simulating turns the duplicate into a cache hit.
//
// A record has one shape whoever wrote it: its manifest and its result
// (the summary). The metrics every comparison reads are derived from the
// summary (Record.Metrics), so two runs of one simulator always speak
// the same metric names, whatever was attached to the run that recorded
// them.
//
// On-disk layout (everything human-readable JSON):
//
//	<dir>/index.jsonl        append-only: one manifest per line, in Put order
//	<dir>/runs/<id>/manifest.json
//	<dir>/runs/<id>/summary.json       the run's result (core.Metrics)
//	<dir>/runs/<id>/attrib.json        optional attribution breakdown
//	<dir>/runs/<id>/powerthermal.json  optional power/thermal summary
//	<dir>/tags/<name>        pinned run ID ("blessed baseline" workflow)
//
// A store written before the metrics were derived also holds a
// metrics.json per run and an "engine" block per manifest; both are
// ignored on read.
//
// Run directories are written to a temporary name and renamed into
// place, so a crash mid-write never leaves a half-recorded run that a
// later Open would serve. The index is append-only by construction;
// nothing in this package ever rewrites or deletes a recorded run.
// Records are deterministic: Go's float formatting round-trips exactly,
// so recording the same run twice produces byte-identical files.
package ledger

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
)

// GitDescribe best-effort identifies the source tree for run manifests
// (Manifest.GitRevision, the telemetry manifest's git_describe); empty
// when git is unavailable. The tree cannot change under a running
// process, so git is forked once.
var GitDescribe = sync.OnceValue(func() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
})

// Manifest is one recorded run's provenance: everything needed to
// recognize, reproduce, or compare it. ID and ConfigDigest are derived
// (see RunID); the rest is recorded verbatim by the harness.
type Manifest struct {
	ID           string   `json:"id"`
	ConfigDigest string   `json:"config_digest"`
	Config       string   `json:"config"`
	Workload     []string `json:"workload,omitempty"`
	Seed         int64    `json:"seed"`
	Experiment   string   `json:"experiment,omitempty"`
	SimVersion   string   `json:"sim_version"`
	GitRevision  string   `json:"git_revision,omitempty"`
	StartedAt    string   `json:"started_at,omitempty"` // RFC3339
	WallSeconds  float64  `json:"wall_seconds,omitempty"`
	Cycles       int64    `json:"cycles"`
}

// Record is one run's full ledger entry: the manifest, the run's result
// and the optional per-subsystem payloads.
type Record struct {
	Manifest Manifest
	// Summary is the run's result (core.Metrics as JSON), recalled
	// verbatim on a cache hit so the harness can report a remembered run
	// exactly as it reported the original. Every record has one; its
	// numbers are the record's Metrics.
	Summary json.RawMessage
	// Attrib and PowerThermal are optional per-subsystem exports.
	Attrib       json.RawMessage
	PowerThermal json.RawMessage
}

// Metrics is the record's metric name -> value map, derived from the
// summary: object keys and array indices become lower-case dotted
// segments ("hmipc", "ipc.0", "noc.delivered"), numbers are kept as
// they are, booleans become 0 or 1, and strings are dropped. A metric
// name therefore means the same thing in every record.
func (r *Record) Metrics() map[string]float64 {
	tree, err := decodeSummary(r.Manifest.ID, r.Summary)
	if err != nil {
		return nil // Put and Get refuse a summary that does not decode
	}
	out := make(map[string]float64)
	flatten(out, "", tree)
	return out
}

func flatten(out map[string]float64, prefix string, v any) {
	switch t := v.(type) {
	case float64:
		out[prefix] = t
	case bool:
		out[prefix] = 0
		if t {
			out[prefix] = 1
		}
	case map[string]any:
		for k, sub := range t {
			key := strings.ToLower(k)
			if prefix != "" {
				key = prefix + "." + key
			}
			flatten(out, key, sub)
		}
	case []any:
		for i, sub := range t {
			flatten(out, fmt.Sprintf("%s.%d", prefix, i), sub)
		}
	}
}

// decodeSummary is the one rule a record must meet: a summary its
// metrics can be derived from.
func decodeSummary(id string, summary json.RawMessage) (any, error) {
	if len(summary) == 0 {
		return nil, fmt.Errorf("ledger: run %s has no summary", id)
	}
	var tree any
	if err := json.Unmarshal(summary, &tree); err != nil {
		return nil, fmt.Errorf("ledger: run %s summary does not decode: %w", id, err)
	}
	return tree, nil
}

// RunID derives the content address of a run: the hex SHA-256 of the
// canonical JSON of (config, workload, simVersion), truncated to 16
// characters for the directory name. The full digest is returned second
// for the manifest. The config value must marshal deterministically
// (a struct, not a map of interfaces) and must include everything that
// determines results — seed, window, organization.
func RunID(config any, workload []string, simVersion string) (id, digest string, err error) {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, part := range []any{config, workload, simVersion} {
		if err := enc.Encode(part); err != nil {
			return "", "", fmt.Errorf("ledger: digest: %w", err)
		}
	}
	digest = hex.EncodeToString(h.Sum(nil))
	return digest[:16], digest, nil
}

// Ledger is one run store rooted at a directory. Safe for concurrent
// use within a process (parallel sweep workers Put as they finish);
// cross-process appends rely on O_APPEND atomicity for the index and
// rename atomicity for run directories.
type Ledger struct {
	dir string
	mu  sync.Mutex
}

// Open ensures the store layout exists under dir and returns the ledger.
func Open(dir string) (*Ledger, error) {
	for _, d := range []string{dir, filepath.Join(dir, "runs"), filepath.Join(dir, "tags")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("ledger: %w", err)
		}
	}
	return &Ledger{dir: dir}, nil
}

// Dir reports the store's root directory.
func (l *Ledger) Dir() string { return l.dir }

func (l *Ledger) runDir(id string) string { return filepath.Join(l.dir, "runs", id) }

// validRef guards every ref that becomes a path component: IDs are
// lowercase hex, tags are simple names; anything with a separator or
// dot-dot is rejected before it can escape the store.
func validRef(ref string) bool {
	if ref == "" || len(ref) > 128 {
		return false
	}
	for _, r := range ref {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '-' || r == '_' || r == '.':
			if strings.Contains(ref, "..") {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Has reports whether a run with the given ID is already recorded.
func (l *Ledger) Has(id string) bool {
	if !validRef(id) {
		return false
	}
	_, err := os.Stat(filepath.Join(l.runDir(id), "manifest.json"))
	return err == nil
}

// marshalRecord renders every file of a record. Kept separate from Put
// so the round-trip determinism test can compare bytes directly.
func marshalRecord(rec *Record) (map[string][]byte, error) {
	files := make(map[string][]byte)
	man, err := json.MarshalIndent(rec.Manifest, "", "  ")
	if err != nil {
		return nil, err
	}
	files["manifest.json"] = append(man, '\n')
	for name, raw := range map[string]json.RawMessage{
		"summary.json":      rec.Summary,
		"attrib.json":       rec.Attrib,
		"powerthermal.json": rec.PowerThermal,
	} {
		if len(raw) > 0 {
			data := append([]byte(nil), raw...)
			if data[len(data)-1] != '\n' {
				data = append(data, '\n')
			}
			files[name] = data
		}
	}
	return files, nil
}

// Put records a completed run. Dedupe is by content address: a run
// whose ID is already present is not rewritten, and Put reports
// added=false — the caller's cache-hit signal. The run directory lands
// atomically (temp dir + rename) before its manifest is appended to the
// index, so a reader never sees an indexed run without its files.
func (l *Ledger) Put(rec *Record) (added bool, err error) {
	if rec.Manifest.ID == "" || !validRef(rec.Manifest.ID) {
		return false, fmt.Errorf("ledger: record has invalid ID %q", rec.Manifest.ID)
	}
	if _, err := decodeSummary(rec.Manifest.ID, rec.Summary); err != nil {
		return false, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.Has(rec.Manifest.ID) {
		return false, nil
	}
	files, err := marshalRecord(rec)
	if err != nil {
		return false, fmt.Errorf("ledger: %w", err)
	}
	tmp, err := os.MkdirTemp(filepath.Join(l.dir, "runs"), ".put-*")
	if err != nil {
		return false, fmt.Errorf("ledger: %w", err)
	}
	defer os.RemoveAll(tmp)
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(tmp, name), data, 0o644); err != nil {
			return false, fmt.Errorf("ledger: %w", err)
		}
	}
	if err := os.Rename(tmp, l.runDir(rec.Manifest.ID)); err != nil {
		// Another process recorded the same run between Has and Rename:
		// that is the dedupe case, not an error.
		if l.Has(rec.Manifest.ID) {
			return false, nil
		}
		return false, fmt.Errorf("ledger: %w", err)
	}
	line, err := json.Marshal(rec.Manifest)
	if err != nil {
		return false, fmt.Errorf("ledger: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(l.dir, "index.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return false, fmt.Errorf("ledger: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return false, fmt.Errorf("ledger: %w", err)
	}
	if err := f.Close(); err != nil {
		return false, fmt.Errorf("ledger: %w", err)
	}
	return true, nil
}

// Manifests reads the index in Put order. A run directory that was
// recorded but whose index append was lost (crash between the two) is
// invisible here but still served by Get — the index is a listing, not
// the source of truth.
func (l *Ledger) Manifests() ([]Manifest, error) {
	data, err := os.ReadFile(filepath.Join(l.dir, "index.jsonl"))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	var out []Manifest
	for i, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var m Manifest
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			return nil, fmt.Errorf("ledger: index line %d is corrupt: %w", i+1, err)
		}
		out = append(out, m)
	}
	return out, nil
}

// Resolve maps a ref — a run ID, the literal "latest", or a tag name —
// to a recorded run ID.
func (l *Ledger) Resolve(ref string) (string, error) {
	if ref == "latest" {
		ms, err := l.Manifests()
		if err != nil {
			return "", err
		}
		if len(ms) == 0 {
			return "", fmt.Errorf("ledger: empty store, no latest run")
		}
		return ms[len(ms)-1].ID, nil
	}
	if !validRef(ref) {
		return "", fmt.Errorf("ledger: invalid ref %q", ref)
	}
	if data, err := os.ReadFile(filepath.Join(l.dir, "tags", ref)); err == nil {
		id := strings.TrimSpace(string(data))
		if !l.Has(id) {
			return "", fmt.Errorf("ledger: tag %q points at missing run %q", ref, id)
		}
		return id, nil
	}
	if l.Has(ref) {
		return ref, nil
	}
	return "", fmt.Errorf("ledger: no run, tag or \"latest\" matches %q", ref)
}

// Get loads the run the ref resolves to.
func (l *Ledger) Get(ref string) (*Record, error) {
	id, err := l.Resolve(ref)
	if err != nil {
		return nil, err
	}
	dir := l.runDir(id)
	var rec Record
	man, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	if err := json.Unmarshal(man, &rec.Manifest); err != nil {
		return nil, fmt.Errorf("ledger: run %s manifest is corrupt: %w", id, err)
	}
	for name, dst := range map[string]*json.RawMessage{
		"summary.json":      &rec.Summary,
		"attrib.json":       &rec.Attrib,
		"powerthermal.json": &rec.PowerThermal,
	} {
		if data, err := os.ReadFile(filepath.Join(dir, name)); err == nil {
			*dst = data
		}
	}
	if _, err := decodeSummary(id, rec.Summary); err != nil {
		return nil, err
	}
	return &rec, nil
}

// Tag pins a name to the run the ref resolves to (atomic overwrite:
// re-blessing a baseline moves the tag in one step). Tag names share
// the ref character set and must not collide with "latest".
func (l *Ledger) Tag(name, ref string) error {
	if !validRef(name) || name == "latest" {
		return fmt.Errorf("ledger: invalid tag name %q", name)
	}
	id, err := l.Resolve(ref)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Join(l.dir, "tags"), ".tag-*")
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	if _, err := tmp.WriteString(id + "\n"); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("ledger: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("ledger: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(l.dir, "tags", name)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("ledger: %w", err)
	}
	return nil
}
