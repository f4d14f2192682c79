"""The benchmark's workloads: the CLI arguments each one runs, its input
files, and the checks its outputs must pass.

Every check recomputes what it can without the program: the Kreweras
closed form comes from ``math.comb`` here, not from ``quarterwalks``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

KREWERAS_DIAG = 200
GESSEL_DIAG = 300
KREWERAS_CHECK_TO = 500

# (3n+10)(n+4) f(n+2) = 16 (3n+5)(n+1) f(n), coefficients low degree first
GESSEL_RECURRENCE = {2: [40, 22, 3], 0: [-80, -128, -48]}


class CheckFailed(Exception):
    """A workload's output is wrong."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    expected_exit: int
    argv: Callable[[str], list[str]]  # work dir -> CLI arguments
    check: Callable[[str], None]  # work dir -> raises CheckFailed
    prepare: Callable[[str], None] = lambda work: None


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def gessel_recurrence_json() -> dict:
    """The Gessel diagonal recurrence in the format ``uni_from_json`` reads."""
    terms = [
        {"power": k, "num": [str(c) for c in coeffs], "den": ["1"]}
        for k, coeffs in sorted(GESSEL_RECURRENCE.items())
    ]
    cleared = [
        {"power": k, "coeffs": [str(c) for c in coeffs]}
        for k, coeffs in sorted(GESSEL_RECURRENCE.items())
    ]
    return {"var": "n", "shift": "Sn", "terms": terms, "cleared": cleared}


def _write_gessel_recurrence(work: str):
    with open(os.path.join(work, "gessel_rec.json"), "w") as fh:
        json.dump(gessel_recurrence_json(), fh)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def kreweras_values(n_max: int) -> list[int]:
    """k(n; 0, 0) = 4^m C(3m, m) / ((m+1)(2m+1)) at n = 3m, else 0."""
    out = []
    for n in range(n_max + 1):
        if n % 3:
            out.append(0)
            continue
        m = n // 3
        q, r = divmod(4**m * math.comb(3 * m, m), (m + 1) * (2 * m + 1))
        if r:
            raise ArithmeticError(f"closed form is not an integer at m={m}")
        out.append(q)
    return out


def _poly_eval(coeffs: list[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def check_annihilates(cleared: dict[int, list[int]], seq: list[int]):
    """Raise CheckFailed unless sum_k p_k(n) seq[n+k] = 0 wherever defined."""
    if not cleared or not any(any(p) for p in cleared.values()):
        raise CheckFailed("recurrence is zero")
    order = max(cleared)
    for n in range(len(seq) - order):
        if sum(_poly_eval(p, n) * seq[n + k] for k, p in cleared.items()):
            raise CheckFailed(f"recurrence does not annihilate the closed form at n={n}")


def _read_report(work: str) -> dict:
    try:
        with open(os.path.join(work, "report.json")) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise CheckFailed(f"no readable report: {e}") from e


def _expect(report: dict, key: str, want):
    if report.get(key) != want:
        raise CheckFailed(f"{key} is {report.get(key)!r}, expected {want!r}")


def check_kreweras_prove(work: str):
    report = _read_report(work)
    _expect(report, "status", "PROVED")
    _expect(report, "recurrence_source", "pipeline")
    _expect(report, "reverified_to_n", KREWERAS_DIAG)
    try:
        cleared = {
            int(e["power"]): [int(c) for c in e["coeffs"]]
            for e in report["recurrence"]["cleared"]
        }
    except (KeyError, TypeError, ValueError) as e:
        raise CheckFailed(f"report has no cleared recurrence: {e}") from e
    check_annihilates(cleared, kreweras_values(KREWERAS_CHECK_TO))


def check_gessel_import_prove(work: str):
    report = _read_report(work)
    _expect(report, "status", "PROVED")
    _expect(report, "oracle_check", {"n_checked": GESSEL_DIAG, "ok": True, "failing_n": None})


def check_gessel_qh_guess(work: str):
    out = os.path.join(work, "candidates")
    written = os.listdir(out) if os.path.isdir(out) else []
    if written:
        raise CheckFailed(f"guess wrote candidate files: {sorted(written)}")


# ---------------------------------------------------------------------------
# Definitions
# ---------------------------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="kreweras-prove",
            why=(
                "Kreweras proof through every layer: guess (350x200, kernel 6), certify, "
                "eliminate (25 vectors), closed form; time splits between kernel solve, "
                "echelon and root scan"
            ),
            expected_exit=0,
            argv=lambda work: [
                "prove", "--steps", "W,S,NE", "--closed-form", "kreweras",
                "--bounds", "deg_n=2,deg_i=2,deg_j=2,ord_sn=4,ord_si=1,ord_sj=1,total=2",
                "--multiplier-bound", "1", "--diag-limit", str(KREWERAS_DIAG),
                "--out", os.path.join(work, "report.json"),
            ],
            check=check_kreweras_prove,
        ),
        Workload(
            name="gessel-qh-guess",
            why=(
                "Gessel quasi-holonomic search one Sn order above acceptance criterion 6: "
                "425x264 system, wide kernel (21), no elimination, short DP, exit-1 negative path"
            ),
            expected_exit=1,
            argv=lambda work: [
                "guess", "--steps", "E,W,NE,SW", "--shape", "quasiholonomic",
                "--bounds", "deg_n=2,deg_i=2,deg_j=2,ord_sn=3,ord_si=2,ord_sj=2,total=2",
                "--out", os.path.join(work, "candidates"),
            ],
            check=check_gessel_qh_guess,
        ),
        Workload(
            name="gessel-import-prove",
            why=(
                "Gessel proof from an imported recurrence: about 90% of the time is the "
                "origin-sequence DP (300 levels); guess and eliminate never run"
            ),
            expected_exit=0,
            argv=lambda work: [
                "prove", "--steps", "E,W,NE,SW", "--closed-form", "gessel",
                "--import-recurrence", os.path.join(work, "gessel_rec.json"),
                "--diag-limit", str(GESSEL_DIAG),
                "--out", os.path.join(work, "report.json"),
            ],
            check=check_gessel_import_prove,
            prepare=_write_gessel_recurrence,
        ),
    ]
}
