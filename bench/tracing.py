"""Span tracing for the benchmark, from outside the program.

Run as a script, this drives the real CLI entry in-process with timing
wrappers over the functions each layer exports:

    PYTHONPATH=src python3 bench/tracing.py --spans spans.json -- prove --steps ...

The wrappers replace the module attributes that callers look up
(``quarterwalks.cli.nullspace``, ``quarterwalks.eliminate.eliminate_shifts``,
``UniOperator.apply_to_sequence``, ...), so the program runs unchanged.
Spans are kept in memory and written out once the CLI returns; size
counters are read from the wrapped calls' arguments and results only then,
so that their cost falls outside every span.

Imported as a module (by the harness), it derives self times and the
per-layer metric table from a span file; that part needs no quarterwalks.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

ROOT_SPAN = "cli"


class Recorder:
    """In-memory span store: each span has a name, a start, an end and a parent."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._deferred: list[tuple[dict, object, tuple, dict, object]] = []

    def open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "counters": {},
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: dict):
        span["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, sizes=None):
        """Replace ``owner.attr`` by a wrapper recording a span per call.

        ``sizes(args, kwargs, result)`` returns the span's counters; it runs
        in ``finish``, after the traced program has returned.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if sizes is not None:
                self._deferred.append((span, sizes, args, kwargs, result))
            return result

        setattr(owner, attr, traced)

    def finish(self):
        for span, sizes, args, kwargs, result in self._deferred:
            span["counters"] = sizes(args, kwargs, result)
        self._deferred.clear()


# ---------------------------------------------------------------------------
# Size counters, read from arguments and results after the run
# ---------------------------------------------------------------------------


def _levels_cells(n_max: int) -> int:
    return sum((n + 1) ** 2 for n in range(n_max + 1))


def _table_sizes(args, kwargs, table):
    bits = max(v.bit_length() for level in table.levels for row in level for v in row)
    return {"n_max": table.n_max, "cells": _levels_cells(table.n_max), "max_count_bits": bits}


def _origin_sizes(args, kwargs, seq):
    n_max = len(seq) - 1
    bits = max(v.bit_length() for v in seq)
    return {"n_max": n_max, "cells": _levels_cells(n_max), "max_count_bits": bits}


def _system_sizes(args, kwargs, system):
    matrix = system.matrix
    bits = max((abs(x).bit_length() for row in matrix for x in row), default=0)
    return {"rows": len(matrix), "cols": len(matrix[0]) if matrix else 0, "max_entry_bits": bits}


def _nullspace_sizes(args, kwargs, basis):
    matrix = args[0].matrix
    cols = len(matrix[0]) if matrix else 0
    return {"rank": cols - len(basis), "kernel_dim": len(basis)}


def _filter_sizes(args, kwargs, kept):
    return {"kernel_dim": len(args[0]), "kept": len(kept)}


def _certify_sizes(args, kwargs, cert):
    return {"certified": int(cert.certified), "chain_len": len(cert.chain)}


def _module_sizes(args, kwargs, result):
    vectors, dropped = result
    return {"vectors": len(vectors), "dropped": int(dropped)}


def _shifts_sizes(args, kwargs, result):
    _, diag = result
    return {"vectors": diag["vectors"], "positions": diag["positions"]}


def _prove_sizes(args, kwargs, verdict):
    p = args[0]
    bits = max((abs(c).bit_length() for poly in p.cleared().values() for c in poly), default=0)
    return {
        "initial_values_checked": verdict.checked_initial_values,
        "p_order": p.order(),
        "p_max_coeff_bits": bits,
    }


def install(rec: Recorder):
    """Wrap the layer entry points that the CLI and the eliminator call."""
    import quarterwalks.cli as cli
    import quarterwalks.eliminate as eliminate

    rec.wrap(cli, "cached_table", "walks.cached_table", _table_sizes)
    rec.wrap(cli, "origin_sequence", "walks.origin_sequence", _origin_sizes)
    rec.wrap(cli, "assemble_system", "guess.assemble_system", _system_sizes)
    rec.wrap(cli, "nullspace", "guess.nullspace", _nullspace_sizes)
    rec.wrap(cli, "filter_candidates", "guess.filter_candidates", _filter_sizes)
    rec.wrap(cli, "certify_operator", "certify.certify_operator", _certify_sizes)
    rec.wrap(cli, "takayama_pipeline", "eliminate.takayama_pipeline")
    rec.wrap(eliminate, "generate_module", "eliminate.generate_module", _module_sizes)
    rec.wrap(eliminate, "eliminate_shifts", "eliminate.eliminate_shifts", _shifts_sizes)
    rec.wrap(eliminate.UniOperator, "apply_to_sequence", "eliminate.apply_to_sequence")
    rec.wrap(cli, "max_nonneg_root", "closedform.max_nonneg_root")
    rec.wrap(cli, "prove_equality", "closedform.prove_equality", _prove_sizes)
    return cli.main


# ---------------------------------------------------------------------------
# Derivation: self times and the per-layer table
# ---------------------------------------------------------------------------


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of its interval that child spans cover."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_metrics(spans: list[dict], total_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run whose wall time was ``total_s``.

    Times are sums over calls; a layer that never ran reads 0.
    """
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def calls(name):
        return by_name.get(name, [])

    def secs(name):
        return sum(s["end"] - s["start"] for s in calls(name))

    def total(name, key):
        return sum(s["counters"].get(key, 0) for s in calls(name))

    def most(name, key):
        return max((s["counters"].get(key, 0) for s in calls(name)), default=0)

    def last(name, key):
        found = calls(name)
        return found[-1]["counters"].get(key, 0) if found else 0

    def ratio(num, den):
        return num / den if den else 0.0

    selfs = self_times(spans)
    root = next(s["id"] for s in spans if s["name"] == ROOT_SPAN)
    top_level = sum(s["end"] - s["start"] for s in spans if s["parent"] == root)
    reverify = sum(selfs[s["id"]] for s in calls("eliminate.takayama_pipeline"))
    pipeline_ids = {s["id"] for s in calls("eliminate.takayama_pipeline")}
    reverify += sum(
        s["end"] - s["start"]
        for s in calls("eliminate.apply_to_sequence")
        if s["parent"] in pipeline_ids
    )
    table_cells = total("walks.cached_table", "cells") + total("walks.origin_sequence", "cells")
    return {
        "walks.cached_table.s": secs("walks.cached_table"),
        "walks.cached_table.n_max": most("walks.cached_table", "n_max"),
        "walks.origin_sequence.s": secs("walks.origin_sequence"),
        "walks.origin_sequence.n_max": most("walks.origin_sequence", "n_max"),
        "walks.cells": table_cells,
        "walks.max_count_bits": max(
            most("walks.cached_table", "max_count_bits"),
            most("walks.origin_sequence", "max_count_bits"),
        ),
        "guess.assemble_system.s": secs("guess.assemble_system"),
        "guess.rows": most("guess.assemble_system", "rows"),
        "guess.cols": most("guess.assemble_system", "cols"),
        "guess.max_entry_bits": most("guess.assemble_system", "max_entry_bits"),
        "guess.nullspace.s": secs("guess.nullspace"),
        "guess.rank": most("guess.nullspace", "rank"),
        "guess.kernel_dim": total("guess.nullspace", "kernel_dim"),
        "guess.filter_candidates.s": secs("guess.filter_candidates"),
        "guess.kept_ratio": ratio(
            total("guess.filter_candidates", "kept"),
            total("guess.filter_candidates", "kernel_dim"),
        ),
        "certify.certify_operator.s": secs("certify.certify_operator"),
        "certify.calls": len(calls("certify.certify_operator")),
        "certify.certified_ratio": ratio(
            total("certify.certify_operator", "certified"), len(calls("certify.certify_operator"))
        ),
        "certify.chain_len_max": most("certify.certify_operator", "chain_len"),
        "eliminate.generate_module.s": secs("eliminate.generate_module"),
        "eliminate.vectors": last("eliminate.eliminate_shifts", "vectors"),
        "eliminate.positions": last("eliminate.eliminate_shifts", "positions"),
        "eliminate.eliminate_shifts.s": secs("eliminate.eliminate_shifts"),
        "eliminate.rounds": len(calls("eliminate.eliminate_shifts")),
        "eliminate.reverify.s": reverify,
        "eliminate.apply_to_sequence.s": secs("eliminate.apply_to_sequence"),
        "eliminate.apply_to_sequence.calls": len(calls("eliminate.apply_to_sequence")),
        "eliminate.p_order": last("closedform.prove_equality", "p_order"),
        "eliminate.p_max_coeff_bits": last("closedform.prove_equality", "p_max_coeff_bits"),
        "closedform.max_nonneg_root.s": secs("closedform.max_nonneg_root"),
        "closedform.prove_equality.s": secs("closedform.prove_equality"),
        "closedform.initial_values_checked": last(
            "closedform.prove_equality", "initial_values_checked"
        ),
        "cli.self_s": total_s - top_level,
        "trace.total_s": total_s,
    }


def run_traced(argv: list[str]) -> dict:
    """Run the CLI with ``argv`` under the wrappers; return its exit code and spans."""
    rec = Recorder()
    main = install(rec)
    root = rec.open(ROOT_SPAN)
    try:
        main(args=argv, prog_name="quarterwalks")
        code = 0
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else (0 if e.code is None else 2)
    finally:
        rec.close(root)
    # what the harness must not count as traced time: reading the counters
    post_start = time.perf_counter()
    rec.finish()
    return {"exit_code": code, "spans": rec.spans, "post_s": time.perf_counter() - post_start}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spans", required=True, help="file the spans are written to")
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    opts = ap.parse_args()
    argv = opts.cli_args[1:] if opts.cli_args[:1] == ["--"] else opts.cli_args
    out = run_traced(argv)
    with open(opts.spans, "w") as fh:
        json.dump(out, fh)
    sys.exit(out["exit_code"])


if __name__ == "__main__":
    main()
