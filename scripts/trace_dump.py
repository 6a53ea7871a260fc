#!/usr/bin/env python3
"""Pretty-print packet-lifecycle traces from an exported telemetry JSON.

Reads either a full telemetry document ({"metrics":...,"trace":...}, as
written by OBS_TELEMETRY=<path> or engine telemetry_to_json()) or a bare
PacketTrace JSON ({"capacity":...,"events":[...]}).

  scripts/trace_dump.py telemetry.json             # per-frame summary
  scripts/trace_dump.py telemetry.json --frame 17  # one frame's span chain
  scripts/trace_dump.py telemetry.json --profile   # per-phase lap table only
  scripts/trace_dump.py alerts.json --series       # windowed sparklines
  scripts/trace_dump.py alerts.json --alerts       # fired drift/SLO alerts
  scripts/trace_dump.py privacy.json --privacy     # leakage view + matrix

Documents that carry a "profile" section (campaign telemetry exports)
also get a per-phase lap table — wall/CPU time per phase with per-call
averages, the campaign counterpart of the per-frame span chain.

--series reads the "windows" section (sim-time-windowed series, as
written by engine telemetry_to_json() or examples/drift_monitor) and
renders one sparkline of window means per labeled series; --alerts reads
the alert arrays drift_monitor writes ("alerts" / "control_alerts") and
tabulates each firing with its window's sim-time bounds.

--privacy is the leakage view of the same "windows" section (as written
by examples/adaptive_privacy): the sparkline table restricted to the
privacy_* series (anonymity set, partition balance, max pairwise JSD,
proxy accuracy per window), followed by one per-vMAC-pair linkability
matrix per cell — the window-mean Jensen–Shannon divergence (bits)
between every audited stream pair, from the privacy_pairwise_jsd_bits
series' a/b labels (emitted when the run sets OBS_PRIVACY_PAIRS /
TelemetryConfig::privacy_pairs). Low off-diagonal numbers mean sibling
vMACs look alike on the air; values near 1 mean the pair is trivially
separable.

Standard library only; no third-party dependencies.
"""

import argparse
import json
import sys


def mac_str(aux):
    """Render a kSniffed aux (station MAC as u64) back to colon form."""
    if aux <= 0:
        return "-"
    return ":".join(f"{(aux >> (8 * i)) & 0xFF:02x}" for i in range(5, -1, -1))


def load_doc(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def trace_of(doc, path):
    trace = doc.get("trace", doc)
    if "events" not in trace:
        raise SystemExit(f"{path}: no trace section (run with OBS_TRACE on?)")
    return trace


def print_profile(profile):
    """Per-phase lap table from a PhaseProfiler export: accumulated wall
    and thread-CPU time per phase, with per-call averages. "cells" is the
    sum of the whole-cell laps and "cell/<id>" one cell's lap, keyed by
    its grid cell id; the fixed phases (generation, features, streaming,
    arbitration, adaptive) are laps taken inside cells. Sorting by name
    keeps the cell laps adjacent."""
    if not profile:
        print("profile section is empty (profiling disabled for the run?)")
        return
    rows = []
    for phase in sorted(profile):
        sample = profile[phase]
        calls = sample.get("calls", 0)
        wall_us = sample.get("wall_us", 0)
        cpu_us = sample.get("cpu_us", 0)
        rows.append([
            phase, calls,
            f"{wall_us / 1000:.3f}", f"{cpu_us / 1000:.3f}",
            f"{wall_us / calls:.1f}" if calls else "-",
            f"{100 * cpu_us / wall_us:.0f}%" if wall_us else "-",
        ])
    print(f"{len(rows)} phases")
    print_table(rows, ["phase", "calls", "wall_ms", "cpu_ms",
                       "wall_us/call", "cpu/wall"])


def spans(events):
    """Group events per frame and decompose the span chain, mirroring
    obs::PacketTrace::spans_of (integer microseconds, exact)."""
    frames = {}
    for event in events:
        frames.setdefault(event["frame"], []).append(event)
    out = []
    for frame_id in sorted(frames):
        at = {e["hop"]: e["at_us"] for e in frames[frame_id]}
        aux = {e["hop"]: e["aux"] for e in frames[frame_id]}
        row = {
            "frame": frame_id,
            "events": frames[frame_id],
            "dropped": "dropped" in at,
            "complete": all(h in at for h in
                            ("enqueue", "schedule", "on_air", "sniffed"))
                        and "dropped" not in at,
            "station": mac_str(aux.get("sniffed", 0)),
            "padded": aux.get("shape", 0),
        }
        if "enqueue" in at and "schedule" in at:
            row["queueing"] = at["schedule"] - at["enqueue"]
        if "on_air" in at:
            start = at.get("channel_enqueue", at.get("schedule"))
            if start is not None:
                row["backoff"] = at["on_air"] - start
            row["airtime"] = aux.get("on_air", 0)
        if "enqueue" in at and "sniffed" in at:
            row["end_to_end"] = at["sniffed"] - at["enqueue"]
        out.append(row)
    return out


def print_table(rows, header):
    widths = [max(len(str(r[i])) for r in [header] + rows)
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))


SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values):
    """Unicode sparkline of a value list; None marks an empty window."""
    present = [v for v in values if v is not None]
    if not present:
        return ""
    lo, hi = min(present), max(present)
    span = hi - lo
    chars = []
    for v in values:
        if v is None:
            chars.append(" ")
        elif span == 0:
            chars.append(SPARK_BLOCKS[0])
        else:
            idx = int((v - lo) / span * (len(SPARK_BLOCKS) - 1))
            chars.append(SPARK_BLOCKS[idx])
    return "".join(chars)


def labels_str(labels):
    return ",".join(f"{k}={v}" for k, v in sorted(labels.items())) or "-"


def print_series(windows):
    """Sparkline table of every windowed series: one row per (name,
    labels) with the window-mean curve over the series' own window range
    (blanks are windows with no observations)."""
    series = windows.get("series", [])
    if not series:
        print("windows section is empty (run with OBS_WINDOWED on?)")
        return
    window_s = windows.get("window_us", 0) / 1e6
    print(f"{len(series)} series  (window {window_s:g}s)")
    rows = []
    for entry in series:
        points = {p["window"]: p for p in entry.get("points", [])}
        if not points:
            continue
        lo, hi = min(points), max(points)
        means = [points[w]["sum"] / points[w]["count"]
                 if w in points and points[w]["count"] else None
                 for w in range(lo, hi + 1)]
        present = [m for m in means if m is not None]
        rows.append([
            entry["name"], labels_str(entry.get("labels", {})),
            f"{lo}..{hi}", sparkline(means),
            f"{min(present):.3g}", f"{max(present):.3g}",
        ])
    print_table(rows, ["series", "labels", "windows", "mean/window",
                       "min", "max"])


def series_mean_over_windows(entry):
    """Count-weighted mean of one windowed series across all its points."""
    total = sum(p["sum"] for p in entry.get("points", []))
    count = sum(p["count"] for p in entry.get("points", []))
    return total / count if count else None


def print_privacy(windows):
    """Leakage view: the --series sparkline table restricted to the
    privacy_* series, then one per-vMAC-pair linkability matrix per cell
    (pair series grouped by their labels minus a/b)."""
    series = windows.get("series", [])
    privacy = [s for s in series if s["name"].startswith("privacy_")]
    if not privacy:
        print("no privacy_* series (run with OBS_PRIVACY on?)")
        return
    pairs = [s for s in privacy if s["name"] == "privacy_pairwise_jsd_bits"]
    scalars = [s for s in privacy
               if s["name"] != "privacy_pairwise_jsd_bits"]
    print_series({"window_us": windows.get("window_us", 0),
                  "series": scalars})

    if not pairs:
        print("\nno privacy_pairwise_jsd_bits series "
              "(run with OBS_PRIVACY_PAIRS on for the linkability matrix)")
        return
    cells = {}
    for entry in pairs:
        labels = dict(entry.get("labels", {}))
        a, b = labels.pop("a"), labels.pop("b")
        mean = series_mean_over_windows(entry)
        if mean is not None:
            cells.setdefault(tuple(sorted(labels.items())), {})[(a, b)] = mean
    for key in sorted(cells):
        grid = cells[key]
        stations = sorted({s for ab in grid for s in ab})
        print(f"\nlinkability matrix (window-mean JSD bits)  "
              f"[{labels_str(dict(key))}]")
        header = ["vMAC \\ vMAC"] + [s[-4:] for s in stations]
        rows = []
        for a in stations:
            row = [a]
            for b in stations:
                v = grid.get((a, b), grid.get((b, a)))
                row.append("-" if a == b else
                           f"{v:.3f}" if v is not None else "")
            rows.append(row)
        print_table(rows, header)


def print_alerts(doc):
    """Table of fired AlertRecords with sim-time window bounds. Accepts a
    drift_monitor document ("alerts" + "control_alerts") or a bare alert
    array."""
    groups = []
    if isinstance(doc, list):
        groups.append(("alerts", doc))
    else:
        for key in ("alerts", "control_alerts"):
            if key in doc:
                groups.append((key, doc[key]))
    if not groups:
        raise SystemExit("no alert arrays in document")
    for name, alerts in groups:
        print(f"{name}: {len(alerts)} fired")
        if not alerts:
            continue
        print_table(
            [[a["rule"], a["kind"], a["detail"], a["series"],
              labels_str(a.get("labels", {})), a["window"],
              "-" if a["window"] < 0 else
              f"{a['window_start_us'] / 1e6:g}-{a['window_end_us'] / 1e6:g}s",
              f"{a['threshold']:g}", f"{a['observed']:g}"]
             for a in alerts],
            ["rule", "kind", "detail", "series", "labels", "window",
             "bounds", "threshold", "observed"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path", help="telemetry or trace JSON file")
    parser.add_argument("--frame", type=int,
                        help="dump one frame's event chain instead")
    parser.add_argument("--all", action="store_true",
                        help="include incomplete/dropped frames")
    parser.add_argument("--profile", action="store_true",
                        help="print only the per-phase lap table")
    parser.add_argument("--series", action="store_true",
                        help="print sparklines of the windowed series")
    parser.add_argument("--alerts", action="store_true",
                        help="print the fired drift/SLO alerts")
    parser.add_argument("--privacy", action="store_true",
                        help="print the leakage series sparklines and "
                             "per-vMAC-pair linkability matrix")
    args = parser.parse_args()

    doc = load_doc(args.path)
    if args.profile:
        if "profile" not in doc:
            raise SystemExit(f"{args.path}: no profile section "
                             "(campaign run with profiling off?)")
        print_profile(doc["profile"])
        return
    if args.privacy:
        if "windows" not in doc:
            raise SystemExit(f"{args.path}: no windows section "
                             "(run with OBS_PRIVACY on?)")
        print_privacy(doc["windows"])
        return
    if args.series or args.alerts:
        if args.series:
            if "windows" not in doc:
                raise SystemExit(f"{args.path}: no windows section "
                                 "(run with OBS_WINDOWED on?)")
            print_series(doc["windows"])
        if args.alerts:
            if args.series:
                print()
            print_alerts(doc)
        return

    trace = trace_of(doc, args.path)
    decomposed = spans(trace["events"])

    if args.frame is not None:
        matches = [r for r in decomposed if r["frame"] == args.frame]
        if not matches:
            raise SystemExit(f"frame {args.frame} not in trace "
                             f"(evicted? {trace.get('evicted', 0)} events "
                             "were)")
        row = matches[0]
        print(f"frame {row['frame']}  station {row['station']}  "
              f"padded {row['padded']} B  "
              f"{'DROPPED' if row['dropped'] else ''}")
        base = row["events"][0]["at_us"]
        chain = [(e["hop"], e["at_us"], e["at_us"] - base, e["aux"])
                 for e in row["events"]]
        print_table([list(c) for c in chain],
                    ["hop", "at_us", "+us", "aux"])
        for key in ("queueing", "backoff", "airtime", "end_to_end"):
            if key in row:
                print(f"{key:>12}: {row[key]} us")
        return

    rows = [r for r in decomposed if args.all or r["complete"]]
    if not rows:
        print("no complete frames in trace "
              f"({len(decomposed)} partial, {trace.get('evicted', 0)} "
              "events evicted)")
        return
    print(f"{len(rows)} frames  "
          f"(capacity {trace.get('capacity', '?')}, "
          f"evicted {trace.get('evicted', 0)} events)")
    print_table(
        [[r["frame"], r["station"],
          r.get("queueing", "-"), r.get("backoff", "-"),
          r.get("airtime", "-"), r.get("end_to_end", "-"), r["padded"],
          "drop" if r["dropped"] else ("ok" if r["complete"] else "partial")]
         for r in rows],
        ["frame", "station", "queue_us", "backoff_us", "air_us",
         "e2e_us", "pad_B", "state"])
    if "profile" in doc:
        print()
        print_profile(doc["profile"])


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not an error.
        sys.stderr.close()
        sys.exit(0)
