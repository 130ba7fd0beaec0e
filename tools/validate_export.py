#!/usr/bin/env python3
"""Validate an export directory against the documented schema.

Checks, using only the Python standard library:
  * manifest.json exists, parses, and carries the expected
    schema_version / tool / version / git / run / artifacts fields;
  * every listed artifact file exists, and tables have the advertised
    row count;
  * every column of every JSON table is documented (appears in
    backticks) in docs/METRICS.md, as are all metric names;
  * trace.json, when present, is well-formed Chrome trace_event JSON
    whose complete events nest properly per track.

A .json FILE argument is validated as an autotuner cache instead
(tune_cache_version / simd / threads header plus well-formed entries —
known pass and engine names, 64-bit hex hashes, non-negative timings).

Usage: tools/validate_export.py EXPORT_DIR|TUNE_CACHE.json [...]
Exit status 0 when every argument passes.
"""

import json
import re
import sys
from pathlib import Path

SCHEMA_VERSION = "1.0.0"
REPO_ROOT = Path(__file__).resolve().parent.parent
METRICS_DOC = REPO_ROOT / "docs" / "METRICS.md"

ARTIFACT_KINDS = {"table_csv", "table_json", "json", "metrics", "trace"}

TUNE_CACHE_VERSION = 2
TUNE_ENTRY_FIELDS = {"batch", "input", "channels", "filters", "kernel",
                     "stride", "pad", "groups", "pass", "dtype", "hash",
                     "engine", "best_ms", "baseline_ms"}
TUNE_PASSES = {"forward", "backward-data", "backward-filter"}
TUNE_DTYPES = {"fp32", "int8"}
TUNE_ENGINES = {"direct", "unrolling", "fft", "fft-tiled", "winograd",
                "winograd-f4", "depthwise", "unrolling-int8"}


class Failure(Exception):
    pass


def documented_names():
    """Every backticked identifier in docs/METRICS.md."""
    text = METRICS_DOC.read_text(encoding="utf-8")
    return set(re.findall(r"`([^`\n]+)`", text))


def check(cond, message):
    if not cond:
        raise Failure(message)


def load_json(path):
    check(path.is_file(), f"missing file: {path.name}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise Failure(f"{path.name}: invalid JSON ({err})") from err


def validate_manifest(directory):
    manifest = load_json(directory / "manifest.json")
    for key in ("schema_version", "tool", "version", "git", "run",
                "artifacts"):
        check(key in manifest, f"manifest.json: missing key '{key}'")
    check(manifest["schema_version"] == SCHEMA_VERSION,
          f"manifest.json: schema_version {manifest['schema_version']!r}"
          f" != {SCHEMA_VERSION!r}")
    check(isinstance(manifest["run"], dict), "manifest.json: 'run' not an"
          " object")
    check(isinstance(manifest["artifacts"], list) and manifest["artifacts"],
          "manifest.json: empty artifact list")
    for entry in manifest["artifacts"]:
        check(entry.get("kind") in ARTIFACT_KINDS,
              f"manifest.json: unknown artifact kind {entry.get('kind')!r}")
        check((directory / entry["file"]).is_file(),
              f"manifest.json: listed artifact missing: {entry['file']}")
    return manifest


def validate_table(directory, entry, documented):
    doc = load_json(directory / entry["file"])
    name = entry["file"]
    for key in ("schema_version", "table", "columns", "rows"):
        check(key in doc, f"{name}: missing key '{key}'")
    check(doc["schema_version"] == SCHEMA_VERSION,
          f"{name}: schema_version mismatch")
    check(len(doc["rows"]) == entry.get("rows"),
          f"{name}: {len(doc['rows'])} rows, manifest says"
          f" {entry.get('rows')}")
    for column in doc["columns"]:
        check(re.fullmatch(r"[a-z0-9_]+", column),
              f"{name}: column {column!r} is not snake_case")
        check(column in documented,
              f"{name}: column `{column}` not documented in"
              f" {METRICS_DOC.relative_to(REPO_ROOT)}")
    for row in doc["rows"]:
        check(set(row) <= set(doc["columns"]),
              f"{name}: row keys {sorted(set(row) - set(doc['columns']))}"
              " not in columns")


def validate_csv(directory, entry):
    lines = (directory / entry["file"]).read_text(encoding="utf-8")
    lines = lines.splitlines()
    check(lines, f"{entry['file']}: empty CSV")
    # Quoted cells may embed newlines; only require at least header+rows.
    check(len(lines) >= 1 + entry.get("rows", 0) - lines[0].count('"'),
          f"{entry['file']}: fewer lines than manifest rows")


def validate_metrics(directory, entry, documented):
    doc = load_json(directory / entry["file"])
    check(doc.get("schema_version") == SCHEMA_VERSION,
          "metrics.json: schema_version mismatch")
    for family in ("counters", "gauges", "histograms"):
        check(family in doc, f"metrics.json: missing '{family}'")
        for metric in doc[family]:
            check(metric in documented,
                  f"metrics.json: metric `{metric}` not documented")
    for name, hist in doc["histograms"].items():
        for key in ("count", "sum", "min", "max", "mean", "buckets"):
            check(key in hist, f"metrics.json: {name}: missing '{key}'")
        total = sum(b["count"] for b in hist["buckets"])
        check(total == hist["count"],
              f"metrics.json: {name}: bucket counts {total} !="
              f" count {hist['count']}")


def validate_trace(directory, entry, nest_eps=1e-6, relax_serve=False):
    doc = load_json(directory / entry["file"])
    check(doc.get("displayTimeUnit") == "ms", "trace.json: bad"
          " displayTimeUnit")
    events = doc.get("traceEvents")
    check(isinstance(events, list) and events, "trace.json: no traceEvents")
    track_names = {}
    per_track = {}
    for event in events:
        check(event.get("pid") == 1, "trace.json: unexpected pid")
        if event.get("ph") == "M":
            check(event.get("name") == "thread_name",
                  "trace.json: unknown metadata event")
            track_names[event["tid"]] = event.get("args", {}).get("name", "")
            continue
        check(event.get("ph") == "X",
              f"trace.json: unsupported phase {event.get('ph')!r}")
        for key in ("tid", "ts", "dur", "name", "cat"):
            check(key in event, f"trace.json: X event missing '{key}'")
        check(event["dur"] >= 0, "trace.json: negative duration")
        per_track.setdefault(event["tid"], []).append(
            (event["ts"], event["ts"] + event["dur"], event["name"]))
    for tid, spans in per_track.items():
        check(tid in track_names, f"trace.json: track {tid} has no"
              " thread_name metadata")
        # Per-request events on serve:* virtual tracks overlap whenever
        # requests share a batch; a serving run (manifest run.serve)
        # exempts those tracks from the nesting rule.
        if relax_serve and track_names[tid].startswith("serve:"):
            continue
        # Events on one track must nest or be disjoint — no partial
        # overlap (tolerance for float rounding).
        eps = nest_eps
        stack = []
        # Longest-first at equal starts, so enclosing spans precede
        # children that begin at the same timestamp.
        for start, end, name in sorted(spans,
                                       key=lambda s: (s[0], -s[1])):
            while stack and stack[-1][0] <= start + eps:
                stack.pop()
            if stack:
                check(end <= stack[-1][0] + eps,
                      f"trace.json: track {tid}: '{name}' partially"
                      f" overlaps '{stack[-1][1]}'")
            stack.append((end, name))


SERVING_COLUMNS = {"mode", "offered_rps", "submitted", "completed",
                   "achieved_rps", "p50_ms", "p95_ms", "p99_ms"}


def validate_serving_table(directory, entry):
    """BENCH_serving schema (tools/loadgen): per-step accounting must be
    self-consistent and percentiles ordered."""
    doc = load_json(directory / entry["file"])
    name = entry["file"]
    missing = SERVING_COLUMNS - set(doc.get("columns", []))
    check(not missing,
          f"{name}: BENCH_serving missing columns {sorted(missing)}")
    check(doc.get("rows"), f"{name}: BENCH_serving has no rows")
    check(any(row.get("completed", 0) > 0 for row in doc["rows"]),
          f"{name}: BENCH_serving completed no requests")
    for i, row in enumerate(doc["rows"]):
        check(row["completed"] <= row["submitted"],
              f"{name}: row {i}: completed {row['completed']} >"
              f" submitted {row['submitted']}")
        check(row["p50_ms"] <= row["p95_ms"] <= row["p99_ms"],
              f"{name}: row {i}: percentiles not ordered"
              f" (p50 {row['p50_ms']}, p95 {row['p95_ms']},"
              f" p99 {row['p99_ms']})")


# Paired-timing tables (bench_cpu_kernels), keyed by file-name prefix:
# each row pairs a baseline benchmark with its twin on the same case —
# fp32 vs int8, staged vs prepacked weights, staged GEMM vs prepacked
# Winograd, one pool task vs the whole pool — as (baseline column, twin
# column).
PAIRED_TABLES = {
    "BENCH_int8": ("fp32_real_ns", "int8_real_ns"),
    "BENCH_prepack": ("staged_real_ns", "prepacked_real_ns"),
    "BENCH_winograd": ("gemm_real_ns", "winograd_real_ns"),
    "BENCH_zoo_gemm": ("one_core_real_ns", "all_cores_real_ns"),
}


def validate_paired_table(directory, entry, table, base_col, twin_col):
    """One paired table: required columns, positive timings, and a
    speedup column equal to baseline/twin within 1e-3."""
    doc = load_json(directory / entry["file"])
    name = entry["file"]
    missing = ({"case", base_col, twin_col, "speedup"}
               - set(doc.get("columns", [])))
    check(not missing, f"{name}: {table} missing columns {sorted(missing)}")
    for i, row in enumerate(doc.get("rows", [])):
        base = float(row[base_col])
        twin = float(row[twin_col])
        speedup = float(row["speedup"])
        check(base > 0 and twin > 0,
              f"{name}: row {i}: non-positive timing")
        check(abs(speedup - base / twin) <= 1e-3 * speedup + 1e-6,
              f"{name}: row {i}: speedup {speedup} != {base_col}/{twin_col}"
              f" {base / twin}")


def validate_tune_cache(path):
    """Validates one on-disk autotuner cache (src/tune/autotuner.cpp)."""
    doc = load_json(path)
    check(doc.get("tune_cache_version") == TUNE_CACHE_VERSION,
          f"tune_cache_version {doc.get('tune_cache_version')!r}"
          f" != {TUNE_CACHE_VERSION}")
    check(isinstance(doc.get("simd"), str) and doc["simd"],
          "missing/empty 'simd'")
    threads = doc.get("threads")
    check(isinstance(threads, (int, float)) and threads >= 1,
          f"bad 'threads': {threads!r}")
    # v2: the header advertises the writer's engine set; a reader whose
    # set differs rejects the whole cache rather than misread decisions.
    engines = doc.get("engines")
    check(isinstance(engines, str) and engines,
          "missing/empty 'engines'")
    advertised = set(engines.split(","))
    entries = doc.get("entries")
    check(isinstance(entries, list), "'entries' is not a list")
    for i, entry in enumerate(entries):
        check(isinstance(entry, dict), f"entry {i}: not an object")
        missing = TUNE_ENTRY_FIELDS - set(entry)
        check(not missing, f"entry {i}: missing {sorted(missing)}")
        check(entry["pass"] in TUNE_PASSES,
              f"entry {i}: unknown pass {entry['pass']!r}")
        check(entry["dtype"] in TUNE_DTYPES,
              f"entry {i}: unknown dtype {entry['dtype']!r}")
        check(entry["engine"] in TUNE_ENGINES,
              f"entry {i}: unknown engine {entry['engine']!r}")
        check(entry["engine"] in advertised,
              f"entry {i}: engine {entry['engine']!r} not in the"
              " advertised 'engines' set")
        check(isinstance(entry["hash"], str) and
              re.fullmatch(r"0x[0-9a-f]{16}", entry["hash"]),
              f"entry {i}: malformed hash {entry['hash']!r}")
        for field in TUNE_ENTRY_FIELDS - {"pass", "dtype", "hash",
                                          "engine"}:
            value = entry[field]
            check(isinstance(value, (int, float)) and value >= 0,
                  f"entry {i}: bad {field}: {value!r}")
        check(entry["best_ms"] <= entry["baseline_ms"] or
              entry["baseline_ms"] == 0,
              f"entry {i}: winner {entry['best_ms']} ms slower than the"
              f" measured default {entry['baseline_ms']} ms")
    return len(entries)


def validate_directory(directory):
    manifest = validate_manifest(directory)
    documented = documented_names()
    # Sanitizer-instrumented runs (manifest run.sanitizer, set by
    # GPUCNN_SANITIZE builds) keep the same schema but dilate timings
    # unevenly — interceptor overhead lands between a span's recorded
    # start and its children's — so sibling spans that abut within
    # nanoseconds in a plain build can partially overlap by a few
    # microseconds. Widen only the trace-nesting tolerance; every
    # structural check stays as strict as a plain run.
    sanitizer = manifest.get("run", {}).get("sanitizer")
    nest_eps = 5e-3 if sanitizer else 1e-6
    serve = manifest.get("run", {}).get("serve")
    for entry in manifest["artifacts"]:
        kind = entry["kind"]
        if kind == "table_json":
            validate_table(directory, entry, documented)
            for table, (base_col, twin_col) in PAIRED_TABLES.items():
                if entry["file"].startswith(table):
                    validate_paired_table(directory, entry, table, base_col,
                                          twin_col)
        elif kind == "table_csv":
            validate_csv(directory, entry)
        elif kind == "metrics":
            validate_metrics(directory, entry, documented)
        elif kind == "trace":
            validate_trace(directory, entry, nest_eps, bool(serve))
    if serve:
        # A serving run must ship its serving table; the full
        # BENCH_serving schema is enforced on the loadgen export.
        serving = [e for e in manifest["artifacts"]
                   if e["file"].startswith("serving")]
        check(serving, "manifest run.serve set but no serving table"
              " exported")
        for entry in serving:
            if entry["kind"] == "table_json" and serve == "loadgen":
                validate_serving_table(directory, entry)
    return len(manifest["artifacts"]), sanitizer


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    status = 0
    for arg in argv[1:]:
        path = Path(arg)
        try:
            if path.is_file():
                count = validate_tune_cache(path)
                print(f"OK   {path}: tune cache with {count} entries valid")
            else:
                count, sanitizer = validate_directory(path)
                note = f" (sanitizer: {sanitizer})" if sanitizer else ""
                print(f"OK   {path}: {count} artifacts valid{note}")
        except Failure as failure:
            print(f"FAIL {path}: {failure}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
