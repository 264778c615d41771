"""Merge run logs into comparable JSON and CSV series.

Input logs are JSON-lines files as written by the search loop (one object
per stage per iteration). Each log becomes one labeled series aligned by
iteration, with the stage-1 mean loss, stage-2 mean reward where present,
and the stage-3 per-iteration candidate and running-best accuracies.
"""

from __future__ import annotations

import json
import os

from .errors import ConfigError


def _load_log(path: str) -> list[dict]:
    entries = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except (ValueError, RecursionError) as exc:  # also bytes that are not utf-8
                raise ConfigError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
            if not (isinstance(entry, dict) and isinstance(entry.get("iteration"), int)
                    and isinstance(entry.get("stage"), str)):
                raise ConfigError(f"{path}:{lineno}: log entry missing an int iteration "
                                  "or a str stage")
            entries.append(entry)
    if not entries:
        raise ConfigError(f"{path}: empty run log")
    return entries


def series_from_log(path: str, label: str | None = None) -> dict:
    entries = _load_log(path)
    iterations = sorted({e["iteration"] for e in entries})
    by = {(e["iteration"], e["stage"]): e for e in entries}
    series = {
        "label": label or os.path.splitext(os.path.basename(path))[0],
        "iterations": iterations,
        "loss": [], "mean_reward": [], "candidate_accuracy": [], "best_accuracy": [],
    }
    for it in iterations:
        shared = by.get((it, "shared"), {})
        ctl = by.get((it, "controller"), {})
        sel = by.get((it, "select"), {})
        series["loss"].append(shared.get("loss"))
        series["mean_reward"].append(ctl.get("mean_reward"))
        series["candidate_accuracy"].append(sel.get("candidate_accuracy"))
        series["best_accuracy"].append(sel.get("best_accuracy"))
    return series


def emit_report(log_paths: list[str], out_dir: str, labels: list[str] | None = None) -> dict:
    """Write report.json and report.csv; returns the report document."""
    if not log_paths:
        raise ConfigError("no run logs given")
    if labels and len(labels) != len(log_paths):
        raise ConfigError("need exactly one label per log")
    all_series = [series_from_log(p, labels[i] if labels else None)
                  for i, p in enumerate(log_paths)]
    doc = {"series": all_series}
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    iterations = sorted({it for s in all_series for it in s["iterations"]})
    cols = ["loss", "mean_reward", "candidate_accuracy", "best_accuracy"]
    header = ["iteration"]
    for s in all_series:
        header += [f"{s['label']}:{c}" for c in cols]
    rows = [",".join(header)]
    for it in iterations:
        row = [str(it)]
        for s in all_series:
            if it in s["iterations"]:
                k = s["iterations"].index(it)
                row += ["" if s[c][k] is None else f"{s[c][k]}" for c in cols]
            else:
                row += [""] * len(cols)
        rows.append(",".join(row))
    with open(os.path.join(out_dir, "report.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    return doc
