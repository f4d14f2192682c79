"""The benchmark's span tracer wraps CLI names by lookup; a refactor that
renames or stops calling one of them would silently empty its layer.
This runs the tracer on small proofs and checks that the spans it relies
on still appear, and that the size counters read from them are filled."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from tracing import layer_metrics  # noqa: E402
from workloads import gessel_recurrence_json  # noqa: E402


def _trace(tmp_path, args):
    """Run the CLI under the tracer; the spans it recorded."""
    spans = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "tracing.py"), "--spans", str(spans), "--",
         *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(spans.read_text())["spans"]


def test_tracer_sees_every_prove_layer(tmp_path):
    rec = tmp_path / "gessel_rec.json"
    rec.write_text(json.dumps(gessel_recurrence_json()))
    spans = _trace(
        tmp_path,
        ["prove", "--steps", "E,W,NE,SW", "--closed-form", "gessel",
         "--import-recurrence", str(rec), "--diag-limit", "30"],
    )
    names = {s["name"] for s in spans}
    for name in ("walks.origin_sequence",
                 "closedform.max_nonneg_root", "closedform.prove_equality"):
        assert name in names


def test_tracer_sees_every_layer_of_a_pipeline_proof(tmp_path):
    # a small Kreweras proof runs every layer, so every row of the
    # per-layer table has a span behind it
    spans = _trace(
        tmp_path,
        ["prove", "--steps", "W,S,NE", "--closed-form", "kreweras",
         "--bounds", "deg_n=2,deg_i=2,deg_j=2,ord_sn=4,ord_si=1,ord_sj=1,total=2",
         "--multiplier-bound", "1", "--diag-limit", "40"],
    )
    names = {s["name"] for s in spans}
    layers = {
        "walks.cached_table", "walks.origin_sequence",
        "guess.assemble_system", "guess.nullspace", "guess.filter_candidates",
        "certify.certify_operator",
        "eliminate.takayama_pipeline", "eliminate.generate_module",
        "eliminate.eliminate_shifts", "eliminate.apply_to_sequence",
        "closedform.max_nonneg_root", "closedform.prove_equality",
    }
    assert layers <= names, sorted(layers - names)
    # the counters that read generate_module's vectors and the cleared P
    metrics = layer_metrics(spans, total_s=1.0)
    for counter in ("eliminate.vectors", "eliminate.positions",
                    "eliminate.p_order", "eliminate.p_max_coeff_bits"):
        assert metrics[counter] > 0, counter
