"""Batch pipeline driver.

Subcommands: count, table, guess, certify, eliminate, prove,
check-closed-form, import-recurrence.  Results go to stdout (or --out
files) in machine-readable form; progress and diagnostics go to stderr.

Exit codes: 0 = proved / found / valid, 1 = sound negative (refuted,
nothing found, rejected import, failed elimination), 2 = error.  An
operational error (bad input, malformed file, unsupported request, an
elimination that cannot finish) prints one ``error: <message>`` line;
only an unexpected exception adds its traceback, and both exit 2.
Commands raise, and ``_MainGroup`` alone decides how an error is reported.
"""

from __future__ import annotations

import glob
import json
import os
import sys
import traceback
from dataclasses import asdict, dataclass, field

import click

from . import __version__
from .certify import certify_operator
from .closedform import CLOSED_FORMS, hypergeom_term, max_nonneg_root, prove_equality
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
from .ore import json_int, operator_from_json, operator_to_json
from .walks import (
    CountTable,
    StepSet,
    cached_table,
    origin_sequence,
    parse_step_set,
    table_to_json,
    trivial_operator,
)

_DEFAULT_BOUNDS = "deg_n=2,deg_i=2,deg_j=2,ord_sn=3,ord_si=1,ord_sj=1"
_COUNT = click.IntRange(min=0)
_CLOSED_FORM = click.Choice(sorted(CLOSED_FORMS))


def _progress(msg: str):
    click.echo(msg, err=True)


def parse_bounds(text: str) -> Bounds:
    """Parse 'deg_n=2,deg_i=2,...,ord_sj=1[,total=4]' into Bounds; a key
    given twice (``total`` and ``total_poly_deg`` are one key) or a value
    that is not a decimal integer (``json_int``) raises TemplateError."""
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
        if key in fields:
            raise TemplateError(f"bounds key {key!r} given twice")
        try:
            fields[key] = json_int(value.strip())
        except ValueError:
            raise TemplateError(f"bounds key {key!r}: {value!r} is not an integer") from None
    return Bounds(**fields)


@dataclass
class PipelineConfig:
    """Effective options of a run; embedded verbatim in every artifact."""

    steps: str
    shape: str = "full"
    bounds: list[str] = field(default_factory=list)
    margin: int = 20
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
    """The CLI's one error boundary: every uncaught non-click exception
    exits 2, so that exit 1 stays reserved for sound negatives.

    A ValueError (bad steps, bounds or template, a malformed file, an
    unsupported divisor), an OSError (a path that cannot be read or
    written), an EliminationError or a VerificationError is an operational
    error and prints one ``error: <message>`` line; any other exception is
    unexpected and prints its traceback first."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except (ValueError, OSError, EliminationError, VerificationError) as e:
            msg = str(e)
        except Exception as e:
            click.echo(traceback.format_exc(), err=True)
            msg = f"{type(e).__name__}: {e}"
        click.echo(f"error: {msg}", err=True)
        sys.exit(2)


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
    click.echo(str(cached_table(parse_step_set(steps)).value(n, i, j)))


@main.command()
@click.option("--steps", required=True)
@click.option("--n-max", type=_COUNT, required=True)
@click.option("--out", default=None, help="Write the table JSON here instead of stdout.")
def table(steps, n_max, out):
    """Export the count table to n = n-max as JSON (decimal-string entries,
    exact beyond 2^53)."""
    tbl = CountTable(parse_step_set(steps), n_max)
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
    """Search an ansatz for annihilating operators; write candidates as JSON.

    An --out that already holds candidate files is refused before any
    guessing, so that the directory never mixes candidates of two runs."""
    stale = glob.glob(os.path.join(glob.escape(out), "candidate_*.json"))
    if stale:
        raise ValueError(
            f"{out} already holds candidate files ({len(stale)} candidate_*.json); "
            "remove them or choose another --out"
        )
    config = PipelineConfig(steps=steps, shape=shape, bounds=list(bounds), margin=margin)
    candidates, _, _ = _run_guess(config)
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


def _load(path: str, parse):
    """Read an operator file with ``parse`` (``operator_from_json`` or
    ``uni_from_json``), unwrapping an ``"operator"`` key.  A file that is
    not text or not JSON, that is not a JSON object, whose object lacks a
    field or holds one of the wrong type, that the reader rejects, or that
    holds the zero operator (which every sequence satisfies) raises
    ValueError naming the file."""
    try:
        with open(path) as fh:
            data = json.load(fh)
        if isinstance(data, dict):
            data = data.get("operator", data)
        if not isinstance(data, dict):
            raise ValueError(f"expected a JSON object, not {type(data).__name__}")
        op = parse(data)
    except (KeyError, TypeError) as e:
        raise ValueError(f"{path}: malformed operator ({type(e).__name__}: {e})") from e
    except ValueError as e:
        raise ValueError(f"{e} (in {path})") from e
    if op.is_zero():
        raise ValueError(f"{path}: the file holds the zero operator")
    return op


@main.command()
@click.option("--steps", required=True)
@click.argument("operator_file", type=click.Path(exists=True))
@click.option("--out", default=None, help="Write the certificate JSON here.")
def certify(steps, operator_file, out):
    """Certify (or refute) that an operator annihilates the walk counts."""
    config = PipelineConfig(steps=steps)
    step_set = parse_step_set(steps)
    op = _load(operator_file, operator_from_json)
    oracle = cached_table(step_set)
    cert = certify_operator(op, trivial_operator(step_set), oracle)
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
    if not cert.certified:
        sys.exit(1)


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
    step_set = parse_step_set(steps)
    ops = [_load(p, operator_from_json) for p in operator_files]
    _progress(f"streaming origin sequence to n = {diag_limit}")
    diagonal = origin_sequence(step_set, diag_limit)
    try:
        p = takayama_pipeline(ops, diagonal, multiplier_bound)
    except EliminationFailure as e:
        click.echo(str(e), err=True)
        sys.exit(1)
    _dump({"meta": _meta(config), "operator": uni_to_json(p)}, out)


def _validate_recurrence(op: UniOperator, step_set: StepSet, n_check: int) -> int | None:
    """Oracle gate for imported recurrences: the first n in 0..n_check at
    which the recurrence fails on the origin sequence, or None.  Each
    caller first requires an order below n_check, so that the check covers
    at least one window, and names its own option when it is not."""
    seq = origin_sequence(step_set, n_check)
    return op.first_failure(seq, range(n_check - op.order() + 1))


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
    op = _load(recurrence_file, uni_from_json)
    if op.order() >= n_check:
        raise ValueError("--n-check must exceed the recurrence order")
    bad = _validate_recurrence(op, parse_step_set(steps), n_check)
    if bad is not None:
        click.echo(f"rejected: fails sequence check at n={bad}", err=True)
        sys.exit(1)
    _dump({"meta": _meta(config), "operator": uni_to_json(op)}, out)


@main.command("check-closed-form")
@click.option("--closed-form", "which", type=_CLOSED_FORM, required=True)
@click.option("--m-max", type=_COUNT, default=13, show_default=True)
def check_closed_form(which, m_max):
    """Check the built-in closed form, its terms built from the ratio of
    its Pochhammer parameters, against the origin counts of its walks."""
    step_set, term = CLOSED_FORMS[which]
    n_max = term.period * m_max
    pairs = zip(term.sequence(n_max), origin_sequence(step_set, n_max))
    bad = next((n for n, (value, count) in enumerate(pairs) if value != count), None)
    if bad is not None:
        click.echo(f"mismatch at n={bad}", err=True)
        sys.exit(1)
    click.echo(f"closed form {which}: OK (values to n={n_max})")


@main.command()
@click.option("--steps", required=True)
@click.option("--closed-form", "which", type=_CLOSED_FORM, required=True)
@click.option("--import-recurrence", "import_file", type=click.Path(exists=True), default=None,
              help="Skip guessing/elimination and use this recurrence for the proof.")
@click.option("--bounds", multiple=True, default=[_DEFAULT_BOUNDS], show_default=True)
@click.option("--shape", type=click.Choice(["full", "quasiholonomic"]), default="full")
@click.option("--margin", type=_COUNT, default=20)
@click.option("--multiplier-bound", type=_COUNT, default=None)
@click.option("--diag-limit", type=_COUNT, default=500, show_default=True)
@click.option("--out", default=None, help="Write the full report JSON here.")
def prove(steps, which, import_file, bounds, shape, margin, multiplier_bound, diag_limit, out):
    """End-to-end proof: guess, certify, eliminate, and match the closed
    form; or validate an imported recurrence and do the final step only."""
    config = PipelineConfig(
        steps=steps, shape=shape, bounds=list(bounds), margin=margin,
        multiplier_bound=multiplier_bound, diag_limit=diag_limit, closed_form=which,
    )
    term = hypergeom_term(which)
    report: dict = {"meta": _meta(config), "closed_form": which}
    step_set = parse_step_set(steps)

    if import_file:
        p = _load(import_file, uni_from_json)
        if p.order() >= diag_limit:
            raise ValueError("--diag-limit must exceed the recurrence order")
        bad = _validate_recurrence(p, step_set, diag_limit)
        report["recurrence_source"] = "imported"
        report["oracle_check"] = {"n_checked": diag_limit, "ok": bad is None, "failing_n": bad}
        if bad is not None:
            report["status"] = f"REJECTED(import fails sequence check at n={bad})"
            _dump(report, out)
            sys.exit(1)
    else:
        candidates, oracle, t = _run_guess(config)
        report["candidates"] = len(candidates)
        if not candidates:
            report["status"] = "FAILED(no candidates)"
            _dump(report, out)
            sys.exit(1)
        certified = []
        for op in candidates:
            cert = certify_operator(op, t, oracle)
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
