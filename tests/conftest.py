import pytest

from quarterwalks import (
    Bounds,
    CountTable,
    EliminationConfig,
    GESSEL,
    KREWERAS,
    build_template,
    certify_operator,
    guess_operators,
    origin_sequence,
    takayama_pipeline,
    trivial_operator,
)


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
    return takayama_pipeline(kreweras_certified, kreweras_diagonal_500, EliminationConfig())
