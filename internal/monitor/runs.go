package monitor

import (
	"encoding/json"
	"fmt"
	"html"
	"math"
	"net/http"
	"strconv"

	"stackedsim/internal/ledger"
)

// jsonNum makes a float JSON-safe: NaN and ±Inf (legal metric values,
// illegal JSON) render as null instead of killing the whole document.
func jsonNum(v float64) any {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return v
}

func (s *Server) ledgerOr404(w http.ResponseWriter) *ledger.Ledger {
	if s.Ledger == nil {
		http.Error(w, "no run ledger attached (start with -ledger-dir)", http.StatusNotFound)
		return nil
	}
	return s.Ledger
}

// handleRuns lists recorded runs, filterable with ?digest= (full config
// digest or run ID), ?config= and ?experiment=, plus the pinned tags.
func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	l := s.ledgerOr404(w)
	if l == nil {
		return
	}
	q := r.URL.Query()
	runs, err := l.List(ledger.Filter{
		ConfigDigest: q.Get("digest"),
		Config:       q.Get("config"),
		Experiment:   q.Get("experiment"),
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	tags, err := l.Tags()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(struct { //nolint:errcheck // best-effort over HTTP
		Runs []ledger.Manifest `json:"runs"`
		Tags map[string]string `json:"tags,omitempty"`
	}{Runs: runs, Tags: tags})
}

// handleRun serves one run's full record with the metrics derived from
// its summary. The path ref may be a run ID, a tag name, or "latest".
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	l := s.ledgerOr404(w)
	if l == nil {
		return
	}
	rec, err := l.Get(r.PathValue("id"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(struct { //nolint:errcheck // best-effort over HTTP
		Manifest     ledger.Manifest    `json:"manifest"`
		Metrics      map[string]float64 `json:"metrics"`
		Summary      json.RawMessage    `json:"summary,omitempty"`
		Attribution  json.RawMessage    `json:"attribution,omitempty"`
		PowerThermal json.RawMessage    `json:"power_thermal,omitempty"`
	}{
		Manifest:     rec.Manifest,
		Metrics:      rec.Metrics(),
		Summary:      rec.Summary,
		Attribution:  rec.Attrib,
		PowerThermal: rec.PowerThermal,
	})
}

var diffKindNames = map[ledger.DiffKind]string{
	ledger.DiffSame:    "same",
	ledger.DiffChanged: "changed",
	ledger.DiffBreach:  "breach",
	ledger.DiffOnlyA:   "only_a",
	ledger.DiffOnlyB:   "only_b",
}

// compareDelta is one metric's delta on the wire (kind as a string,
// values JSON-safe).
type compareDelta struct {
	Name string `json:"name"`
	A    any    `json:"a"`
	B    any    `json:"b"`
	Rel  any    `json:"rel,omitempty"`
	Kind string `json:"kind"`
}

// handleCompare diffs run ?a= against baseline ?b= (each a run ID, tag
// or "latest") with an optional ?threshold= (default 0.05). JSON by
// default; ?format=html renders a table with breach rows highlighted.
func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	l := s.ledgerOr404(w)
	if l == nil {
		return
	}
	q := r.URL.Query()
	aRef, bRef := q.Get("a"), q.Get("b")
	if aRef == "" || bRef == "" {
		http.Error(w, "compare needs ?a=<ref>&b=<ref> (run id, tag, or \"latest\")", http.StatusBadRequest)
		return
	}
	threshold := 0.05
	if t := q.Get("threshold"); t != "" {
		v, err := strconv.ParseFloat(t, 64)
		if err != nil || v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			http.Error(w, fmt.Sprintf("bad threshold %q", t), http.StatusBadRequest)
			return
		}
		threshold = v
	}
	recA, err := l.Get(aRef)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	recB, err := l.Get(bRef)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	deltas, breaches := ledger.Compare(recA.Metrics(), recB.Metrics(), threshold)
	if q.Get("format") == "html" {
		s.renderCompareHTML(w, aRef, bRef, recA.Manifest.ID, recB.Manifest.ID, threshold, deltas, breaches)
		return
	}
	wire := make([]compareDelta, 0, len(deltas))
	for _, d := range deltas {
		cd := compareDelta{Name: d.Name, Kind: diffKindNames[d.Kind]}
		switch d.Kind {
		case ledger.DiffOnlyA:
			cd.A = jsonNum(d.A)
		case ledger.DiffOnlyB:
			cd.B = jsonNum(d.B)
		default:
			cd.A, cd.B, cd.Rel = jsonNum(d.A), jsonNum(d.B), jsonNum(d.Rel)
		}
		wire = append(wire, cd)
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(struct { //nolint:errcheck // best-effort over HTTP
		A         string         `json:"a"`
		B         string         `json:"b"`
		AID       string         `json:"a_id"`
		BID       string         `json:"b_id"`
		Threshold float64        `json:"threshold"`
		Breaches  int            `json:"breaches"`
		Deltas    []compareDelta `json:"deltas"`
	}{A: aRef, B: bRef, AID: recA.Manifest.ID, BID: recB.Manifest.ID,
		Threshold: threshold, Breaches: breaches, Deltas: wire})
}

// renderCompareHTML renders the delta table with breach rows carrying
// the status-critical color (icon + label, never color alone).
func (s *Server) renderCompareHTML(w http.ResponseWriter, aRef, bRef, aID, bID string, threshold float64, deltas []ledger.Delta, breaches int) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, compareHTMLHead, html.EscapeString(aRef), html.EscapeString(aID),
		html.EscapeString(bRef), html.EscapeString(bID), threshold*100, breaches)
	for _, d := range deltas {
		kind := diffKindNames[d.Kind]
		cls, mark := "", ""
		if d.Kind == ledger.DiffBreach {
			cls, mark = ` class="breach"`, "&#9888; "
		}
		rel := "—"
		if d.Kind != ledger.DiffOnlyA && d.Kind != ledger.DiffOnlyB && !math.IsNaN(d.Rel) && d.Kind != ledger.DiffSame {
			rel = fmt.Sprintf("%+.3g%%", d.Rel*100)
		}
		fmt.Fprintf(w, "<tr%s><td>%s</td><td>%g</td><td>%g</td><td>%s</td><td>%s%s</td></tr>\n",
			cls, html.EscapeString(d.Name), d.A, d.B, rel, mark, kind)
	}
	fmt.Fprint(w, "</tbody></table></main></body></html>\n")
}

const compareHTMLHead = `<!doctype html>
<html><head><meta charset="utf-8"><title>stacksim compare</title><style>
:root { color-scheme: light dark; }
body { font: 14px system-ui, -apple-system, "Segoe UI", sans-serif;
  margin: 2rem; background: #f9f9f7; color: #0b0b0b; }
main { background: #fcfcfb; border: 1px solid rgba(11,11,11,0.10);
  border-radius: 8px; padding: 1.5rem; max-width: 72rem; }
h1 { font-size: 1.1rem; } .sub { color: #52514e; margin-bottom: 1rem; }
table { border-collapse: collapse; width: 100%%; }
th { text-align: left; color: #898781; font-weight: 600;
  border-bottom: 1px solid #e1e0d9; padding: .3rem .6rem; }
td { padding: .3rem .6rem; border-bottom: 1px solid #e1e0d9;
  font-variant-numeric: tabular-nums; }
tr.breach td { color: #d03b3b; font-weight: 600; }
@media (prefers-color-scheme: dark) {
  body { background: #0d0d0d; color: #ffffff; }
  main { background: #1a1a19; border-color: rgba(255,255,255,0.10); }
  .sub { color: #c3c2b7; } th { border-color: #2c2c2a; } td { border-color: #2c2c2a; }
}
</style></head><body><main>
<h1>Run comparison</h1>
<div class="sub">a = %s (%s) &nbsp;vs&nbsp; b = %s (%s) &middot; threshold %.3g%% &middot; %d breach(es)</div>
<table><thead><tr><th>metric</th><th>a</th><th>b</th><th>rel</th><th>kind</th></tr></thead><tbody>
`
