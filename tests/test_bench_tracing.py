"""The benchmark's span tracer wraps CLI names by lookup; a refactor that
renames or stops calling one of them would silently empty its layer.
This runs the tracer on a small Gessel import proof and checks that the
spans it relies on still appear."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from workloads import gessel_recurrence_json  # noqa: E402


def test_tracer_sees_every_prove_layer(tmp_path):
    rec = tmp_path / "gessel_rec.json"
    rec.write_text(json.dumps(gessel_recurrence_json()))
    spans = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "tracing.py"), "--spans", str(spans), "--",
         "prove", "--steps", "E,W,NE,SW", "--closed-form", "gessel",
         "--import-recurrence", str(rec), "--diag-limit", "30"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    names = {s["name"] for s in json.loads(spans.read_text())["spans"]}
    for name in ("walks.cached_table", "walks.origin_sequence",
                 "closedform.max_nonneg_root", "closedform.prove_equality"):
        assert name in names
