"""The CLI's outputs stay byte-identical to the stored goldens: every run
of ``golden_regen.RUNS`` is replayed in-process and each of its files
(argv, exit code, stdout, stderr, files written) is compared.  An
intended output change regenerates them with ``tests/golden_regen.py``."""

import os

from golden_regen import GOLDEN, RUNS, replay, stored


def test_cli_outputs_match_the_goldens(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    changed = []
    for name, files in replay(str(tmp_path)).items():
        golden = stored(name)
        changed += [
            f"{name}/{path}" for path in sorted(files.keys() | golden.keys())
            if files.get(path) != golden.get(path)
        ]
    assert not changed, f"outputs differ from tests/golden/: {changed}"
    assert set(os.listdir(GOLDEN)) == {"inputs", *(name for name, _ in RUNS)}
