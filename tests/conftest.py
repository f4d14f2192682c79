import contextlib
import io
from types import SimpleNamespace

import pytest

from quarterwalks import (
    Bounds,
    CountTable,
    GESSEL,
    KREWERAS,
    build_template,
    certify_operator,
    guess_operators,
    origin_sequence,
    takayama_pipeline,
    trivial_operator,
)
from quarterwalks.cli import main


class _Tee(io.StringIO):
    """A stream that also copies what it is given into ``shared``."""

    def __init__(self, shared):
        super().__init__()
        self.shared = shared

    def write(self, text):
        self.shared.write(text)
        return super().write(text)


def run_cli(args):
    """Run the CLI in-process on ``args``.  The result has the exit code,
    ``output`` (stdout and stderr interleaved in the order written) and
    ``stdout``.  An exception that escapes ``main`` is raised, not caught:
    the CLI's own error boundary must turn every error into an exit code."""
    output = io.StringIO()
    out, err = _Tee(output), _Tee(output)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(args, prog_name="quarterwalks")
            code = 0
        except SystemExit as e:
            code = 0 if e.code is None else e.code
    return SimpleNamespace(exit_code=code, output=output.getvalue(), stdout=out.getvalue())


@pytest.fixture(scope="session")
def gessel_oracle():
    return CountTable(GESSEL, 45)


@pytest.fixture(scope="session")
def kreweras_oracle():
    return CountTable(KREWERAS, 45)


@pytest.fixture(scope="session")
def kreweras_certified(kreweras_oracle):
    """The working Kreweras generator set: the transfer operator plus the
    three guessed low-shift-order annihilators (exact solve, certified).

    Session-scoped because guessing and certifying it takes several seconds.
    """
    t = trivial_operator(KREWERAS)
    template = build_template(Bounds(2, 2, 2, 3, 1, 1), "full")
    candidates = guess_operators(template, kreweras_oracle)
    certified = [c for c in candidates if certify_operator(c, t, kreweras_oracle).certified]
    assert certified, "expected guessed Kreweras annihilators"
    return [t] + certified


@pytest.fixture(scope="session")
def kreweras_diagonal_500():
    return origin_sequence(KREWERAS, 500)


@pytest.fixture(scope="session")
def kreweras_p_500(kreweras_certified, kreweras_diagonal_500):
    """The recurrence eliminated from the full Kreweras generator set and
    re-verified on 500 terms; session-scoped because the echelon takes
    several seconds."""
    return takayama_pipeline(kreweras_certified, kreweras_diagonal_500)
