import pytest

from quarterwalks import (
    Bounds,
    GESSEL,
    KREWERAS,
    WalkOracle,
    build_table,
    build_template,
    certify_operator,
    guess_operators,
    trivial_operator,
)


@pytest.fixture(scope="session")
def gessel_oracle():
    return WalkOracle(build_table(GESSEL, 45))


@pytest.fixture(scope="session")
def kreweras_oracle():
    return WalkOracle(build_table(KREWERAS, 45))


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
