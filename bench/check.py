"""Output checks: CSV schema at every seed, reference comparison at the default seed.

Discrete fields (levels, families, active sizes, labels, flags, k, counts,
grid values) must match the reference exactly; floats must match to
FLOAT_RTOL relative (plus FLOAT_ATOL absolute, for values at 0). Hits enter
the verify CSVs as empirical = hits / n, so at this tolerance a single hit
of difference is a mismatch.
"""

from __future__ import annotations

import csv
import math
import os

FLOAT_RTOL = 1e-9
FLOAT_ATOL = 1e-12

# Exit codes the CLI documents for a valid config: success, unsupported
# degeneracy, verification failure.
DOCUMENTED_EXIT_CODES = (0, 3, 4)

# Column kinds: "text" and "int" compare exactly; "grid" is a float echoed
# from the config and compares exactly; "float" compares to the tolerance.
# A set of strings lists the only values the column may take.
SCHEMAS = {
    "cones.csv": (
        ("level", "int"),
        ("gamma", "float"),
        ("alpha", "float"),
        ("min_active_size", "int"),
        ("minimizing_family", "text"),
        ("principal_family", "text"),
    ),
    "sets.csv": (
        ("set", "text"),
        ("type", {"rectangular", "at-least", "complement-box"}),
        ("a", "float"),
        ("beta", "float"),
        ("log_constant", "float"),
        ("mu", "float"),
        ("mu_flag", {"ok", "null-at-cone-scale"}),
        ("t", "grid"),
        ("log_probability", "float"),
    ),
    "hill.csv": (("series", "text"), ("k", "int"), ("alpha_hat", "float")),
    "condprob.csv": (
        ("side", {"gaussian", "pareto"}),
        ("kappa", "grid"),
        ("t", "grid"),
        ("probability", "float"),
        ("conditioning_count", "int"),
    ),
    "verify.csv": (
        ("t", "grid"),
        ("empirical", "float"),
        ("se", "float"),
        ("asymptotic", "float"),
        ("ratio", "float"),
        ("flag", {"ok", "low-hits"}),
    ),
}


def _schema(filename: str):
    return SCHEMAS["verify.csv" if filename.startswith("verify_") else filename]


def _read(path: str) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _parse(kind, text: str):
    if kind == "int":
        return int(text)
    if kind in ("float", "grid"):
        return float(text)
    if isinstance(kind, set) and text not in kind:
        raise ValueError(f"{text!r} not in {sorted(kind)}")
    if not text:
        raise ValueError("empty field")
    return text


def schema_errors(out_dir: str, filenames) -> list[str]:
    """Every way the CSVs in out_dir break their schema; empty when they hold."""
    errors = []
    for filename in filenames:
        path = os.path.join(out_dir, filename)
        if not os.path.exists(path):
            errors.append(f"{filename}: missing")
            continue
        schema = _schema(filename)
        rows = _read(path)
        if not rows or rows[0] != [name for name, _ in schema]:
            errors.append(f"{filename}: header {rows[:1]}")
            continue
        if len(rows) < 2:
            errors.append(f"{filename}: no data rows")
        for number, row in enumerate(rows[1:], start=2):
            if len(row) != len(schema):
                errors.append(f"{filename}:{number}: {len(row)} fields")
                continue
            for (name, kind), text in zip(schema, row):
                try:
                    _parse(kind, text)
                except ValueError as err:
                    errors.append(f"{filename}:{number}: {name}: {err}")
    return errors


def _floats_match(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= FLOAT_RTOL * max(abs(a), abs(b)) + FLOAT_ATOL


def reference_errors(out_dir: str, ref_dir: str, filenames) -> list[str]:
    """Every field of the CSVs in out_dir that differs from the reference."""
    errors = []
    for filename in filenames:
        schema = _schema(filename)
        got = _read(os.path.join(out_dir, filename))
        want = _read(os.path.join(ref_dir, filename))
        if len(got) != len(want):
            errors.append(f"{filename}: {len(got)} rows, reference has {len(want)}")
            continue
        for number, (row, ref) in enumerate(zip(got[1:], want[1:]), start=2):
            for (name, kind), text, ref_text in zip(schema, row, ref):
                if kind == "float":
                    same = _floats_match(float(text), float(ref_text))
                else:
                    same = _parse(kind, text) == _parse(kind, ref_text)
                if not same:
                    errors.append(f"{filename}:{number}: {name} {text} != {ref_text}")
    return errors
