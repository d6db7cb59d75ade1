"""Numeric outputs of workload steps, and their check against the
reference outputs stored in ``reference/<workload>.json``.

Each operation (a scenario call, or one ``accept`` criterion) maps to a flat
dict of fields: CSV cells ``<file>[<row>].<column>``, JSON leaves
``<file>.<key>...`` and text lines ``<file>[<line>]``; an ``accept``
criterion maps to ``passed`` and its ``details``.  ``resolved_config.json``
echoes the input and ``accept_summary.txt`` repeats the report, so neither
is compared.

An operation fails on a non-zero exit, a failed criterion, or a missing or
unparsable output.  How far its values are from the reference is reported
as a deviation, not counted as a failure: the acceptance criteria decide
what is correct, and a faster method may move values within their
tolerances.
"""

from __future__ import annotations

import csv
import json
import math
import os

from workloads import operations

SKIPPED_FILES = ("resolved_config.json", "accept_summary.txt")


def _flatten(obj, prefix: str, out: dict) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(v, f"{prefix}.{k}", out)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(v, f"{prefix}[{i}]", out)
    else:
        out[prefix] = obj


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def read_file(path: str) -> dict:
    """Flat fields of one output file; raises ValueError if unparsable."""
    name = os.path.basename(path)
    out: dict = {}
    with open(path, newline="") as fh:
        if name.endswith(".json"):
            _flatten(json.load(fh), name, out)
        elif name.endswith(".csv"):
            rows = list(csv.reader(fh))
            if not rows:
                raise ValueError(f"{name}: empty CSV")
            header = rows[0]
            for r, row in enumerate(rows[1:]):
                if len(row) != len(header):
                    raise ValueError(f"{name}: row {r} has {len(row)} cells, header has {len(header)}")
                for col, text in zip(header, row):
                    out[f"{name}[{r}].{col}"] = _cell(text)
        else:
            for i, line in enumerate(fh.read().splitlines()):
                out[f"{name}[{i}]"] = line
    return out


def step_fields(scenario: str, step_dir: str) -> dict[str, dict]:
    """Operation name -> flat fields for one step's output directory."""
    if scenario == "accept":
        with open(os.path.join(step_dir, "accept_report.json")) as fh:
            report = json.load(fh)
        ops = {}
        for crit in report["criteria"]:
            fields = {"passed": crit["passed"]}
            _flatten(crit["details"], "details", fields)
            ops[f"accept.{crit['criterion']}"] = fields
        return ops
    fields: dict = {}
    for name in sorted(os.listdir(step_dir)):
        if name not in SKIPPED_FILES:
            fields.update(read_file(os.path.join(step_dir, name)))
    return {scenario: fields}


def output_bytes(step_dir: str) -> int:
    if not os.path.isdir(step_dir):
        return 0
    return sum(os.path.getsize(os.path.join(step_dir, n)) for n in os.listdir(step_dir))


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def deviation(value, ref) -> float:
    """|value - ref| / max(|ref|, 1) for finite numbers: relative above 1 and
    absolute below, so round-off in error measures near 0 stays small.
    Anything else is 0 if equal and 1 (wholly different) if not."""
    if _is_number(ref) and _is_number(value):
        if math.isfinite(ref) and math.isfinite(value):
            return abs(value - ref) / max(abs(ref), 1.0)
        if math.isnan(ref) and math.isnan(value):
            return 0.0
    return 0.0 if type(value) is type(ref) and value == ref else 1.0


def check_operation(fields: dict, ref: dict) -> tuple[float, list[str]]:
    """(largest deviation over the compared fields, list of failures).

    ``ref["values"]`` are compared; ``ref["present"]`` fields (those that
    change with the seed, and work counts) must only exist.  A field that
    is missing, or not a number where the reference has one, is a failure;
    so is an ``accept`` criterion that did not pass.
    """
    problems = []
    worst = 0.0
    if fields.get("passed") is False:
        problems.append("criterion failed")
    for key in ref["present"]:
        if key not in fields:
            problems.append(f"missing {key}")
    for key, want in ref["values"].items():
        if key not in fields:
            problems.append(f"missing {key}")
        elif _is_number(want) and not _is_number(fields[key]):
            problems.append(f"{key} = {fields[key]!r} is not a number")
        else:
            worst = max(worst, deviation(fields[key], want))
    return worst, problems


def check_steps(steps, rcs, workdir: str, reference: dict) -> dict[str, dict]:
    """Operation name -> {"ok", "max_rel_dev", "problems"} for one run of a
    workload's steps; ``rcs`` holds each step's exit code (None if it
    raised)."""
    got, read_errors = {}, {}
    for i, (scenario, _) in enumerate(steps):
        try:
            got.update(step_fields(scenario, os.path.join(workdir, str(i))))
        except (OSError, ValueError, KeyError, TypeError) as e:
            read_errors[i] = f"unreadable output: {type(e).__name__}: {e}"
    result = {}
    for i, name in operations(steps):
        allowed = (0, 1) if steps[i][0] == "accept" else (0,)  # accept exits 1 when a criterion fails
        problems = [] if rcs[i] in allowed else [f"exit code {rcs[i]}"]
        dev = 0.0
        if i in read_errors:
            problems.append(read_errors[i])
        elif name not in got:
            problems.append("no output")
        if name not in reference:
            problems.append("no reference output")
        elif name in got:
            dev, more = check_operation(got[name], reference[name])
            problems += more
        result[name] = {"ok": not problems, "max_rel_dev": dev, "problems": problems}
    return result
