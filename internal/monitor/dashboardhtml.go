package monitor

import (
	"io"
	"net/http"
)

// handleDashboard serves the live run dashboard page.
func (s *Server) handleDashboard(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	io.WriteString(w, dashboardHTML) //nolint:errcheck // best-effort over HTTP
}

// dashboardHTML is the live run dashboard: dependency-free HTML/SVG
// that polls /snapshot once a second and plots the window signals,
// derived from the snapshot's metrics in the script. Styling
// follows the repo's chart conventions — CSS custom properties carry
// the light/dark palette, single-series lines wear categorical slot 1
// (blue) with no legend, text wears ink tokens, and a latest-values
// table backs the charts for accessibility.
const dashboardHTML = `<!doctype html>
<html lang="en"><head><meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>stacksim live run</title>
<style>
:root {
  color-scheme: light;
  --page:      #f9f9f7;  --surface-1: #fcfcfb;
  --ink-1:     #0b0b0b;  --ink-2:     #52514e;  --ink-muted: #898781;
  --grid:      #e1e0d9;  --axis:      #c3c2b7;
  --border:    rgba(11,11,11,0.10);
  --series-1:  #2a78d6;
  --status-good: #0ca30c; --status-critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --page:      #0d0d0d;  --surface-1: #1a1a19;
    --ink-1:     #ffffff;  --ink-2:     #c3c2b7;
    --grid:      #2c2c2a;  --axis:      #383835;
    --border:    rgba(255,255,255,0.10);
    --series-1:  #3987e5;
  }
}
* { box-sizing: border-box; }
body { margin: 0; padding: 1.5rem; background: var(--page); color: var(--ink-1);
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif; font-size: 14px; }
header { display: flex; align-items: baseline; gap: 1rem; margin-bottom: 1rem; }
h1 { font-size: 1.15rem; margin: 0; }
#status { color: var(--ink-2); }
#status .dot { display: inline-block; width: 8px; height: 8px; border-radius: 50%;
  background: var(--status-critical); margin-right: .35rem; }
#status.live .dot { background: var(--status-good); }
.tiles { display: grid; grid-template-columns: repeat(auto-fit, minmax(9.5rem, 1fr));
  gap: .75rem; margin-bottom: 1rem; }
.tile { background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: .7rem .9rem; }
.tile .label { color: var(--ink-muted); font-size: .8rem; }
.tile .value { font-size: 1.45rem; margin-top: .15rem; }
.tile .unit { color: var(--ink-2); font-size: .85rem; margin-left: .2rem; }
.charts { display: grid; grid-template-columns: repeat(auto-fit, minmax(20rem, 1fr));
  gap: .75rem; }
.chart { background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: .7rem .9rem .4rem; position: relative; }
.chart h2 { font-size: .85rem; font-weight: 600; color: var(--ink-2); margin: 0 0 .3rem; }
.chart svg { width: 100%; height: 110px; display: block; }
.chart .tip { position: absolute; pointer-events: none; display: none;
  background: var(--surface-1); border: 1px solid var(--border); border-radius: 6px;
  padding: .2rem .5rem; font-size: .8rem; color: var(--ink-1);
  font-variant-numeric: tabular-nums; white-space: nowrap; }
table { border-collapse: collapse; width: 100%; margin-top: 1rem;
  background: var(--surface-1); border: 1px solid var(--border); border-radius: 8px; }
caption { text-align: left; color: var(--ink-muted); font-size: .8rem; padding: .4rem 0; }
th { text-align: left; color: var(--ink-muted); font-weight: 600;
  padding: .35rem .7rem; border-bottom: 1px solid var(--grid); }
td { padding: .35rem .7rem; border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums; }
tr:last-child td { border-bottom: none; }
a { color: var(--series-1); }
</style></head><body>
<header>
  <h1>stacksim live run</h1>
  <span id="status"><span class="dot"></span><span id="statustext">connecting&hellip;</span></span>
  <span style="margin-left:auto;color:var(--ink-muted)">
    <a href="/snapshot">snapshot</a> &middot; <a href="/metrics">metrics</a>
  </span>
</header>
<div class="tiles" id="tiles"></div>
<div class="charts" id="charts"></div>
<table id="latest"><caption>Latest window values (table view)</caption>
  <thead><tr><th scope="col">signal</th><th scope="col">value</th></tr></thead>
  <tbody></tbody></table>
<script>
"use strict";
const MAXPTS = 240;
const SIGNALS = [
  { key: "ipc",   title: "IPC (window)",            fmt: v => v.toFixed(3) },
  { key: "power", title: "Power (W)",               fmt: v => v.toFixed(1) },
  { key: "temp",  title: "Max DRAM temp (°C)", fmt: v => v.toFixed(1) },
  { key: "skip",  title: "Engine skip ratio (window)", fmt: v => (100 * v).toFixed(1) + "%" },
  { key: "queue", title: "MC read-queue depth (mean)", fmt: v => v.toFixed(1) },
];
const series = {}; // key -> [{cycle, v}]
SIGNALS.forEach(s => series[s.key] = []);
let prev = null;

const tilesEl = document.getElementById("tiles");
const chartsEl = document.getElementById("charts");
const tbody = document.querySelector("#latest tbody");
const tiles = {}, charts = {};

function addTile(key, label, unit) {
  const d = document.createElement("div");
  d.className = "tile";
  d.innerHTML = '<div class="label">' + label + '</div>' +
    '<div class="value"><span class="v">&mdash;</span><span class="unit">' + (unit || "") + "</span></div>";
  tilesEl.appendChild(d);
  tiles[key] = d.querySelector(".v");
}
addTile("cycle", "cycle", "");
SIGNALS.forEach(s => addTile(s.key, s.title.replace(/ \(.*\)/, ""), ""));

SIGNALS.forEach(sig => {
  const d = document.createElement("div");
  d.className = "chart";
  d.innerHTML = "<h2>" + sig.title + "</h2><svg preserveAspectRatio='none'></svg><div class='tip'></div>";
  chartsEl.appendChild(d);
  charts[sig.key] = { root: d, svg: d.querySelector("svg"), tip: d.querySelector(".tip"), sig };
  d.addEventListener("mousemove", e => hover(sig.key, e));
  d.addEventListener("mouseleave", () => { charts[sig.key].tip.style.display = "none"; });
  const row = document.createElement("tr");
  row.innerHTML = "<td>" + sig.title + "</td><td class='val'>&mdash;</td>";
  tbody.appendChild(row);
  charts[sig.key].cell = row.querySelector(".val");
});

function draw(key) {
  const c = charts[key], pts = series[key];
  const W = 600, H = 110, padL = 6, padR = 6, padT = 8, padB = 8;
  c.svg.setAttribute("viewBox", "0 0 " + W + " " + H);
  if (pts.length < 2) { c.svg.innerHTML = ""; return; }
  let lo = Infinity, hi = -Infinity;
  pts.forEach(p => { lo = Math.min(lo, p.v); hi = Math.max(hi, p.v); });
  if (hi - lo < 1e-12) { lo -= 0.5; hi += 0.5; }
  const x0 = pts[0].cycle, x1 = pts[pts.length - 1].cycle || 1;
  const sx = c => padL + (W - padL - padR) * (c - x0) / Math.max(1, x1 - x0);
  const sy = v => H - padB - (H - padT - padB) * (v - lo) / (hi - lo);
  let grid = "";
  for (let i = 0; i <= 2; i++) {
    const y = padT + (H - padT - padB) * i / 2;
    grid += "<line x1='" + padL + "' x2='" + (W - padR) + "' y1='" + y + "' y2='" + y +
      "' stroke='var(--grid)' stroke-width='1' vector-effect='non-scaling-stroke'/>";
  }
  const path = pts.map((p, i) => (i ? "L" : "M") + sx(p.cycle).toFixed(1) + " " + sy(p.v).toFixed(1)).join(" ");
  c.svg.innerHTML = grid +
    "<path d='" + path + "' fill='none' stroke='var(--series-1)' stroke-width='2' " +
    "stroke-linejoin='round' stroke-linecap='round' vector-effect='non-scaling-stroke'/>";
  c.scale = { sx, sy, x0, x1, lo, hi, W, H };
}

function hover(key, e) {
  const c = charts[key], pts = series[key];
  if (!c.scale || pts.length < 2) return;
  const box = c.svg.getBoundingClientRect();
  const frac = (e.clientX - box.left) / box.width;
  const target = c.scale.x0 + frac * (c.scale.x1 - c.scale.x0);
  let best = pts[0];
  pts.forEach(p => { if (Math.abs(p.cycle - target) < Math.abs(best.cycle - target)) best = p; });
  c.tip.textContent = "cycle " + best.cycle.toLocaleString() + " · " + c.sig.fmt(best.v);
  c.tip.style.display = "block";
  const rel = c.root.getBoundingClientRect();
  c.tip.style.left = Math.min(e.clientX - rel.left + 12, rel.width - c.tip.offsetWidth - 6) + "px";
  c.tip.style.top = (e.clientY - rel.top - 28) + "px";
}

function push(key, cycle, v) {
  if (v == null || !isFinite(v)) return;
  const s = series[key];
  s.push({ cycle, v });
  if (s.length > MAXPTS) s.shift();
  const sig = SIGNALS.find(x => x.key === key);
  tiles[key].textContent = sig.fmt(v);
  charts[key].cell.textContent = sig.fmt(v);
  draw(key);
}

// onSnapshot plots one /snapshot. Committed μops and skipped cycles
// are cumulative and differenced against the previous snapshot, so a
// failed poll widens one window instead of corrupting the series.
function onSnapshot(d) {
  const m = d.metrics || {}, pt = d.power_thermal;
  let committed = 0, depth = 0, mcs = 0;
  for (const k in m) {
    if (/^core\d+\.committed$/.test(k)) committed += m[k];
    if (/^mc\d+\.readq\.depth$/.test(k)) { depth += m[k]; mcs++; }
  }
  const cur = { cycle: d.cycle, committed, skipped: m["engine.cycles_skipped"] || 0 };
  tiles.cycle.textContent = cur.cycle.toLocaleString();
  if (prev && cur.cycle === prev.cycle) return; // no Collect since the last poll
  if (prev && cur.cycle > prev.cycle) {
    const dc = cur.cycle - prev.cycle;
    push("ipc", cur.cycle, (cur.committed - prev.committed) / dc);
    push("skip", cur.cycle, (cur.skipped - prev.skipped) / dc);
  }
  // The tracker's block wins over its gauges: the same data, present
  // before the first window closes.
  push("power", cur.cycle, pt ? pt.total_power_w : m["power.total.w"]);
  push("temp", cur.cycle, pt ? pt.max_dram_temp_c : m["thermal.max_dram.c"]);
  if (mcs) push("queue", cur.cycle, depth / mcs);
  prev = cur;
}

const POLL_MS = 1000;
const status = document.getElementById("status"), stext = document.getElementById("statustext");
async function poll() {
  try {
    const res = await fetch("/snapshot", { cache: "no-store" });
    if (!res.ok) throw new Error("HTTP " + res.status);
    onSnapshot(await res.json());
    status.classList.add("live"); stext.textContent = "live";
  } catch (e) {
    status.classList.remove("live"); stext.textContent = "disconnected — retrying";
  }
  setTimeout(poll, POLL_MS);
}
poll();
</script></body></html>
`
