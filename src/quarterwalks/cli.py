"""Batch pipeline driver.

Subcommands: count, table, guess, certify, eliminate, prove,
check-closed-form, import-recurrence.  Results go to stdout (or --out
files) in machine-readable form; progress and diagnostics go to stderr.

Exit codes: 0 = proved / found / valid, 1 = sound negative (refuted,
nothing found, rejected import, failed elimination), 2 = operational
error (bad input, malformed file, unsupported request).
"""

from __future__ import annotations

import json
import os
import sys
import traceback
from dataclasses import asdict, dataclass, field
from typing import NoReturn

import click

from . import __version__
from .certify import CERTIFIED, REFUTED, certify_operator
from .closedform import (
    GESSEL_NAME,
    KREWERAS_NAME,
    HypergeomTerm,
    gessel_rhs,
    hypergeom_term,
    kreweras_rhs,
    max_nonneg_root,
    prove_equality,
    symbolic_satisfies,
)
from .eliminate import (
    EliminationError,
    EliminationFailure,
    UniOperator,
    VerificationError,
    takayama_pipeline,
    uni_from_json,
    uni_to_json,
)
from .guess import (
    Bounds,
    TemplateError,
    assemble_system,
    build_template,
    filter_candidates,
    nullspace,
    plan_points,
)
from .ore import operator_from_json, operator_to_json
from .walks import (
    GESSEL,
    KREWERAS,
    CountTable,
    StepSetParseError,
    cached_table,
    origin_sequence,
    parse_step_set,
    table_to_json,
    trivial_operator,
)

_CLOSED_FORM_STEPS = {GESSEL_NAME: GESSEL, KREWERAS_NAME: KREWERAS}
_DEFAULT_BOUNDS = "deg_n=2,deg_i=2,deg_j=2,ord_sn=3,ord_si=1,ord_sj=1"
_COUNT = click.IntRange(min=0)


def _progress(msg: str):
    click.echo(msg, err=True)


def _fail(msg: str, code: int) -> NoReturn:
    click.echo(f"error: {msg}", err=True)
    sys.exit(code)


def parse_bounds(text: str) -> Bounds:
    """Parse 'deg_n=2,deg_i=2,...,ord_sj=1[,total=4]' into Bounds."""
    fields = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise TemplateError(f"bad bounds item {item!r} (expected key=value)")
        key, _, value = item.partition("=")
        key = key.strip()
        if key == "total":
            key = "total_poly_deg"
        if key not in (
            "deg_n", "deg_i", "deg_j", "ord_sn", "ord_si", "ord_sj", "total_poly_deg",
        ):
            raise TemplateError(f"unknown bounds key {key!r}")
        fields[key] = int(value)
    return Bounds(**fields)


@dataclass
class PipelineConfig:
    """Effective options of a run; embedded verbatim in every artifact."""

    steps: str
    shape: str = "full"
    bounds: list[str] = field(default_factory=list)
    margin: int = 20
    certify_margin: int = 2
    multiplier_bound: int | None = None
    diag_limit: int = 500
    closed_form: str | None = None


def _meta(config: PipelineConfig) -> dict:
    return {"version": __version__, "config": asdict(config)}


def _dump(obj: dict, out: str | None):
    text = json.dumps(obj, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
        click.echo(out)
    else:
        click.echo(text)


class _MainGroup(click.Group):
    """Routes every uncaught non-click exception to exit code 2, so that
    exit 1 stays reserved for sound negatives."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except Exception as e:
            click.echo(traceback.format_exc(), err=True)
            _fail(f"{type(e).__name__}: {e}", 2)


@click.group(cls=_MainGroup)
def main():
    """Quarter-plane walk counting, operator guessing, certification,
    elimination, and closed-form proofs."""


@main.command()
@click.option("--steps", required=True, help="Comma-separated step names, e.g. E,W,NE,SW")
@click.option("--n", type=int, required=True)
@click.option("--i", type=int, required=True)
@click.option("--j", type=int, required=True)
def count(steps, n, i, j):
    """Print the exact number of n-step walks from the origin to (i, j);
    0 for a negative coordinate or a point beyond the light cone."""
    try:
        click.echo(str(cached_table(parse_step_set(steps)).value(n, i, j)))
    except StepSetParseError as e:
        _fail(str(e), 2)


@main.command()
@click.option("--steps", required=True)
@click.option("--n-max", type=_COUNT, required=True)
@click.option("--out", default=None, help="Write the table JSON here instead of stdout.")
def table(steps, n_max, out):
    """Export the count table to n = n-max as JSON (decimal-string entries,
    exact beyond 2^53)."""
    try:
        tbl = CountTable(parse_step_set(steps), n_max)
    except (StepSetParseError, ValueError) as e:
        _fail(str(e), 2)
    text = json.dumps(table_to_json(tbl), sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        click.echo(out)
    else:
        click.echo(text)


def _run_guess(config: PipelineConfig):
    """Shared guessing round; returns (candidates, oracle, trivial op)."""
    step_set = parse_step_set(config.steps)
    candidates = []
    oracle = cached_table(step_set)
    for btext in config.bounds:
        bounds = parse_bounds(btext)
        template = build_template(bounds, config.shape)
        plan = plan_points(template, config.margin)
        _progress(
            f"template {btext} ({config.shape}): {len(template)} unknowns, "
            f"{len(plan.points)} points"
        )
        system = assemble_system(template, oracle, plan.points)
        basis = nullspace(system)
        _progress(f"kernel dimension {len(basis)}")
        found = filter_candidates(basis, template, oracle, plan.fresh_points)
        _progress(f"{len(found)} candidate(s) survive fresh points")
        for op in found:
            if op not in candidates:
                candidates.append(op)
    return candidates, oracle, trivial_operator(step_set)


@main.command()
@click.option("--steps", required=True)
@click.option("--bounds", multiple=True, default=[_DEFAULT_BOUNDS], show_default=True)
@click.option("--shape", type=click.Choice(["full", "quasiholonomic"]), default="full")
@click.option("--margin", type=_COUNT, default=20, help="Extra sample points beyond the unknown count.")
@click.option("--out", required=True, type=click.Path(), help="Directory for candidate JSON files.")
def guess(steps, bounds, shape, margin, out):
    """Search an ansatz for annihilating operators; write candidates as JSON."""
    config = PipelineConfig(steps=steps, shape=shape, bounds=list(bounds), margin=margin)
    try:
        candidates, _, _ = _run_guess(config)
    except (StepSetParseError, TemplateError, ValueError) as e:
        _fail(str(e), 2)
    os.makedirs(out, exist_ok=True)
    for k, op in enumerate(candidates):
        payload = {"meta": _meta(config), "operator": operator_to_json(op)}
        path = os.path.join(out, f"candidate_{k:03d}.json")
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        click.echo(path)
    if not candidates:
        click.echo("no candidates", err=True)
        sys.exit(1)


def _load_operator_file(path: str):
    with open(path) as fh:
        data = json.load(fh)
    payload = data.get("operator", data)
    return operator_from_json(payload)


@main.command()
@click.option("--steps", required=True)
@click.argument("operator_file", type=click.Path(exists=True))
@click.option("--margin", type=_COUNT, default=2, show_default=True)
@click.option("--out", default=None, help="Write the certificate JSON here.")
def certify(steps, operator_file, margin, out):
    """Certify (or refute) that an operator annihilates the walk counts."""
    config = PipelineConfig(steps=steps, certify_margin=margin)
    try:
        step_set = parse_step_set(steps)
        op = _load_operator_file(operator_file)
        if op.is_zero():
            raise ValueError("operator file holds the zero operator")
        oracle = cached_table(step_set)
        cert = certify_operator(op, trivial_operator(step_set), oracle, margin)
    except (StepSetParseError, ValueError, KeyError, json.JSONDecodeError) as e:
        _fail(str(e), 2)
    report = {
        "meta": _meta(config),
        "verdict": cert.verdict,
        "chain": [operator_to_json(w) for w in cert.chain],
        "base_checks": [
            {
                "chain_index": b.chain_index,
                "box": {"n": list(b.box.n_range), "i": list(b.box.i_range), "j": list(b.box.j_range)},
                "all_zero": b.all_zero,
                "counterexample": list(b.counterexample) if b.counterexample else None,
            }
            for b in cert.base_checks
        ],
        "counterexample": list(cert.counterexample) if cert.counterexample else None,
        "detail": cert.detail,
    }
    _dump(report, out)
    if cert.verdict == CERTIFIED:
        return
    sys.exit(1 if cert.verdict == REFUTED else 2)


@main.command()
@click.option("--steps", required=True)
@click.argument("operator_files", nargs=-1, required=True, type=click.Path(exists=True))
@click.option("--multiplier-bound", type=_COUNT, default=None)
@click.option("--diag-limit", type=_COUNT, default=500, show_default=True)
@click.option("--out", default=None)
def eliminate(steps, operator_files, multiplier_bound, diag_limit, out):
    """Combine certified annihilators into a pure recurrence in n for
    the origin-return counts."""
    config = PipelineConfig(
        steps=steps, multiplier_bound=multiplier_bound, diag_limit=diag_limit,
    )
    try:
        step_set = parse_step_set(steps)
        ops = [_load_operator_file(p) for p in operator_files]
        _progress(f"streaming origin sequence to n = {diag_limit}")
        diagonal = origin_sequence(step_set, diag_limit)
    except (StepSetParseError, ValueError, KeyError, json.JSONDecodeError) as e:
        _fail(str(e), 2)
    try:
        p = takayama_pipeline(ops, diagonal, multiplier_bound)
    except EliminationFailure as e:
        click.echo(str(e), err=True)
        sys.exit(1)
    except (EliminationError, VerificationError) as e:
        _fail(str(e), 2)
    _dump({"meta": _meta(config), "operator": uni_to_json(p)}, out)


def _validate_recurrence(op: UniOperator, steps_text: str, n_check: int) -> int | None:
    """Oracle gate for imported recurrences: the first n in 0..n_check at
    which the recurrence fails on the origin sequence, or None."""
    seq = origin_sequence(parse_step_set(steps_text), n_check)
    return op.first_failure(seq, range(n_check - op.order() + 1))


def _load_recurrence(path: str, n_check: int) -> UniOperator:
    """Read a recurrence file; the operator must be nonzero and of order
    below n_check, so that the sequence check covers at least one window."""
    with open(path) as fh:
        data = json.load(fh)
    op = uni_from_json(data.get("operator", data))
    if op.is_zero():
        raise ValueError("recurrence file holds the zero operator")
    if op.order() >= n_check:
        raise ValueError("n-check must exceed the recurrence order")
    return op


@main.command("import-recurrence")
@click.argument("recurrence_file", type=click.Path(exists=True))
@click.option("--steps", required=True)
@click.option("--n-check", type=_COUNT, default=200, show_default=True,
              help="Length of the origin sequence the recurrence is checked against.")
@click.option("--out", default=None)
def import_recurrence(recurrence_file, steps, n_check, out):
    """Load an externally supplied recurrence, validate it against the
    counting oracle, and emit it in normalized form."""
    config = PipelineConfig(steps=steps, diag_limit=n_check)
    try:
        op = _load_recurrence(recurrence_file, n_check)
    except (json.JSONDecodeError, ValueError, KeyError, TypeError) as e:
        _fail(str(e), 2)
    try:
        bad = _validate_recurrence(op, steps, n_check)
    except StepSetParseError as e:
        _fail(str(e), 2)
    if bad is not None:
        click.echo(f"rejected: fails sequence check at n={bad}", err=True)
        sys.exit(1)
    _dump({"meta": _meta(config), "operator": uni_to_json(op)}, out)


@main.command("check-closed-form")
@click.option("--closed-form", "which", type=click.Choice([GESSEL_NAME, KREWERAS_NAME]), required=True)
@click.option("--m-max", type=_COUNT, default=13, show_default=True)
def check_closed_form(which, m_max):
    """Check the built-in closed form against enumeration and its own
    first-order recurrence certificate."""
    term = hypergeom_term(which)
    rhs = gessel_rhs if which == GESSEL_NAME else kreweras_rhs
    n_max = term.period * m_max
    oracle = cached_table(_CLOSED_FORM_STEPS[which], n_max)
    for n in range(n_max + 1):
        expected = rhs(n // term.period) if n % term.period == term.residue else 0
        if oracle.value(n, 0, 0) != expected:
            click.echo(f"mismatch at n={n}", err=True)
            sys.exit(1)
    for m in range(200):
        if term.ratio_at(m) * rhs(m) != rhs(m + 1):
            click.echo(f"ratio certificate fails at m={m}", err=True)
            sys.exit(1)
    base = HypergeomTerm(term.ratio, term.initial, 1, 0)
    num, den = term.ratio
    first_order = UniOperator({1: den, 0: [-c for c in num]})
    if not symbolic_satisfies(first_order, base):
        click.echo("first-order certificate fails symbolically", err=True)
        sys.exit(1)
    click.echo(f"closed form {which}: OK (values to n={n_max}, ratio to m=200, symbolic)")


@main.command()
@click.option("--steps", required=True)
@click.option("--closed-form", "which", type=click.Choice([GESSEL_NAME, KREWERAS_NAME]), required=True)
@click.option("--import-recurrence", "import_file", type=click.Path(exists=True), default=None,
              help="Skip guessing/elimination and use this recurrence for the proof.")
@click.option("--bounds", multiple=True, default=[_DEFAULT_BOUNDS], show_default=True)
@click.option("--shape", type=click.Choice(["full", "quasiholonomic"]), default="full")
@click.option("--margin", type=_COUNT, default=20)
@click.option("--certify-margin", type=_COUNT, default=2)
@click.option("--multiplier-bound", type=_COUNT, default=None)
@click.option("--diag-limit", type=_COUNT, default=500, show_default=True)
@click.option("--out", default=None, help="Write the full report JSON here.")
def prove(steps, which, import_file, bounds, shape, margin, certify_margin,
          multiplier_bound, diag_limit, out):
    """End-to-end proof: guess, certify, eliminate, and match the closed
    form; or validate an imported recurrence and do the final step only."""
    config = PipelineConfig(
        steps=steps, shape=shape, bounds=list(bounds), margin=margin,
        certify_margin=certify_margin, multiplier_bound=multiplier_bound,
        diag_limit=diag_limit, closed_form=which,
    )
    term = hypergeom_term(which)
    report: dict = {"meta": _meta(config), "closed_form": which}
    try:
        step_set = parse_step_set(steps)
    except StepSetParseError as e:
        _fail(str(e), 2)

    if import_file:
        try:
            p = _load_recurrence(import_file, diag_limit)
        except (json.JSONDecodeError, ValueError, KeyError, TypeError) as e:
            _fail(str(e), 2)
        bad = _validate_recurrence(p, steps, diag_limit)
        report["recurrence_source"] = "imported"
        report["oracle_check"] = {"n_checked": diag_limit, "ok": bad is None, "failing_n": bad}
        if bad is not None:
            report["status"] = f"REJECTED(import fails sequence check at n={bad})"
            _dump(report, out)
            sys.exit(1)
    else:
        try:
            candidates, oracle, t = _run_guess(config)
        except (TemplateError, ValueError) as e:
            _fail(str(e), 2)
        report["candidates"] = len(candidates)
        if not candidates:
            report["status"] = "FAILED(no candidates)"
            _dump(report, out)
            sys.exit(1)
        certified = []
        for op in candidates:
            cert = certify_operator(op, t, oracle, certify_margin)
            if cert.certified:
                certified.append(op)
        _progress(f"{len(certified)} of {len(candidates)} candidates certified")
        report["certified"] = len(certified)
        if not certified:
            report["status"] = "FAILED(no certified operators)"
            _dump(report, out)
            sys.exit(1)
        if t not in certified:
            certified.insert(0, t)
        _progress(f"streaming origin sequence to n = {diag_limit}")
        diagonal = origin_sequence(step_set, diag_limit)
        try:
            p = takayama_pipeline(certified, diagonal, multiplier_bound)
        except EliminationFailure as e:
            report["status"] = "FAILED(elimination)"
            report["attempts"] = e.attempts
            _dump(report, out)
            sys.exit(1)
        except (EliminationError, VerificationError) as e:
            _fail(str(e), 2)
        report["recurrence_source"] = "pipeline"
        report["reverified_to_n"] = diag_limit
    report["recurrence"] = uni_to_json(p)
    singular = max_nonneg_root(p.leading_cleared())
    need = p.order() + max(singular, 0) + 1
    oracle = cached_table(step_set, need)
    verdict = prove_equality(p, term, oracle)
    report["verdict"] = {
        "status": verdict.status,
        "initial_values_checked": verdict.checked_initial_values,
        "singular_bound": verdict.singular_bound,
        "failing_index": verdict.failing_index,
    }
    report["status"] = verdict.status
    _dump(report, out)
    if not verdict.proved:
        sys.exit(1)


if __name__ == "__main__":
    main()
