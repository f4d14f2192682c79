"""Golden outputs of the CLI: the runs, how one run is captured, and a
script that rewrites ``tests/golden/`` and prints what changed.

    PYTHONPATH=src python tests/golden_regen.py

The runs replay in order through ``cli.main``, in one fresh working
directory that first receives the files of ``golden/inputs/``.  Every
``--out`` path is relative, so no output names the directory.  A run's
golden is the directory ``golden/<name>/``: ``argv.json``, ``exit_code``,
``stdout``, ``stderr`` and, under ``files/``, each file the run wrote (new,
or with new bytes).  Only the package version of each ``"meta"`` header is
masked.  ``test_golden.py`` replays the runs and compares every byte; an
intended output change reruns this script and commits what it rewrote.
"""

from __future__ import annotations

import difflib
import json
import os
import re
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
INPUTS = os.path.join(GOLDEN, "inputs")

_GESSEL = ["--steps", "E,W,NE,SW", "--closed-form", "gessel"]
_CANDIDATES = [f"candidates/candidate_{k:03d}.json" for k in range(3)]

# (name, argv); a later run may read what an earlier one wrote
RUNS = [
    ("north-star-prove",
     ["prove", "--steps", "W,S,NE", "--closed-form", "kreweras", "--diag-limit", "500"]),
    # the three benchmark workloads
    ("kreweras-prove",
     ["prove", "--steps", "W,S,NE", "--closed-form", "kreweras",
      "--bounds", "deg_n=2,deg_i=2,deg_j=2,ord_sn=4,ord_si=1,ord_sj=1,total=2",
      "--multiplier-bound", "1", "--diag-limit", "200", "--out", "kreweras-prove.json"]),
    ("gessel-qh-guess",
     ["guess", "--steps", "E,W,NE,SW", "--shape", "quasiholonomic",
      "--bounds", "deg_n=2,deg_i=2,deg_j=2,ord_sn=3,ord_si=2,ord_sj=2,total=2",
      "--out", "qh-candidates"]),
    ("gessel-import-prove",
     ["prove", *_GESSEL, "--import-recurrence", "gessel_rec.json", "--diag-limit", "300",
      "--out", "gessel-import-prove.json"]),
    # the Gessel recurrence times (n - 250): 253 initial values, read
    # within the checked sequence at 300 and past it at 100
    ("gessel-n250-prove-300",
     ["prove", *_GESSEL, "--import-recurrence", "gessel_rec_n250.json", "--diag-limit", "300",
      "--out", "gessel-n250-prove-300.json"]),
    ("gessel-n250-prove-100",
     ["prove", *_GESSEL, "--import-recurrence", "gessel_rec_n250.json", "--diag-limit", "100",
      "--out", "gessel-n250-prove-100.json"]),
    ("gessel-import-rejected",
     ["prove", *_GESSEL, "--import-recurrence", "gessel_rec_bad.json", "--diag-limit", "100",
      "--out", "gessel-import-rejected.json"]),
    ("import-recurrence",
     ["import-recurrence", "gessel_rec.json", "--steps", "E,W,NE,SW", "--n-check", "100"]),
    ("kreweras-guess", ["guess", "--steps", "W,S,NE", "--out", "candidates"]),
    ("kreweras-certify",
     ["certify", "--steps", "W,S,NE", _CANDIDATES[0], "--out", "certificate.json"]),
    ("kreweras-eliminate",
     ["eliminate", "--steps", "W,S,NE", *_CANDIDATES, "--diag-limit", "100",
      "--out", "recurrence.json"]),
    # the same P has order 6: seven values check it on one window only,
    # and the run is refused
    ("kreweras-eliminate-diag-6",
     ["eliminate", "--steps", "W,S,NE", *_CANDIDATES, "--diag-limit", "6",
      "--out", "recurrence-6.json"]),
    # and every other entry point that checks P refuses it with the same line
    ("kreweras-prove-import-diag-6",
     ["prove", "--steps", "W,S,NE", "--closed-form", "kreweras",
      "--import-recurrence", "recurrence.json", "--diag-limit", "6"]),
    ("kreweras-import-recurrence-n-check-6",
     ["import-recurrence", "recurrence.json", "--steps", "W,S,NE", "--n-check", "6"]),
    ("count", ["count", "--steps", "E,W,NE,SW", "--n", "12", "--i", "2", "--j", "4"]),
    ("table", ["table", "--steps", "W,S,NE", "--n-max", "8"]),
    ("check-closed-form-gessel", ["check-closed-form", "--closed-form", "gessel"]),
    ("check-closed-form-kreweras", ["check-closed-form", "--closed-form", "kreweras"]),
]

_VERSION = re.compile(r'"version": "[^"]*"')


def mask(text: str) -> str:
    """``text`` with the value of every ``"version"`` key, the package
    version of a ``"meta"`` header (no other record has the key), as *."""
    return _VERSION.sub('"version": "*"', text)


def _snapshot(root: str) -> dict[str, bytes]:
    out = {}
    for top, _, names in os.walk(root):
        for name in names:
            path = os.path.join(top, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def replay(work: str) -> dict[str, dict[str, str]]:
    """Run every run in ``work``, the current directory, after copying the
    inputs there; per run name, its golden files as relative path -> text."""
    from conftest import run_cli

    for name in os.listdir(INPUTS):
        shutil.copy(os.path.join(INPUTS, name), work)
    outputs = {}
    for name, argv in RUNS:
        before = _snapshot(work)
        result = run_cli(argv)
        after = _snapshot(work)
        files = {
            "argv.json": json.dumps(argv, indent=1) + "\n",
            "exit_code": f"{result.exit_code}\n",
            "stdout": mask(result.stdout),
            "stderr": mask(result.stderr),
        }
        for path, data in sorted(after.items()):
            if before.get(path) != data:
                files[os.path.join("files", path)] = mask(data.decode())
        outputs[name] = files
    return outputs


def stored(name: str) -> dict[str, str]:
    """The golden files of the run ``name``, as relative path -> text."""
    root = os.path.join(GOLDEN, name)
    if not os.path.isdir(root):
        return {}
    return {path: data.decode() for path, data in _snapshot(root).items()}


def main():
    work = tempfile.mkdtemp(prefix="golden-")
    cwd = os.getcwd()
    os.chdir(work)
    try:
        outputs = replay(work)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work)
    for name, files in outputs.items():
        old = stored(name)
        for path in sorted(old.keys() | files.keys()):
            sys.stdout.writelines(difflib.unified_diff(
                old.get(path, "").splitlines(keepends=True),
                files.get(path, "").splitlines(keepends=True),
                f"a/{name}/{path}", f"b/{name}/{path}",
            ))
        shutil.rmtree(os.path.join(GOLDEN, name), ignore_errors=True)
        for path, text in files.items():
            target = os.path.join(GOLDEN, name, path)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            with open(target, "w", newline="") as fh:
                fh.write(text)
    stale = set(os.listdir(GOLDEN)) - set(outputs) - {"inputs"}
    for name in sorted(stale):
        print(f"removed stale golden {name}/")
        shutil.rmtree(os.path.join(GOLDEN, name))


if __name__ == "__main__":
    main()
