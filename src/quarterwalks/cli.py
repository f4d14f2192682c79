"""Batch pipeline driver.

Subcommands: count, table, guess, certify, eliminate, prove,
check-closed-form, import-recurrence.  Results go to stdout (or --out
files) in machine-readable form; progress and diagnostics go to stderr.

Exit codes: 0 = proved / found / valid, 1 = sound negative (refuted,
nothing found, rejected import, failed elimination), 2 = error.  A usage
error (an unknown option, a missing or malformed option value) prints
argparse's usage message.  An operational error (bad input, malformed
file, unsupported request, an elimination that cannot finish) prints one
``error: <message>`` line; only an unexpected exception adds its
traceback, and both exit 2.  Commands raise, and ``main`` alone decides
how an error is reported.

Importing this module loads no layer: each command, when it starts,
imports the layer modules it calls and binds the names it uses from them
(``cached_table``, ``nullspace``, ...) as globals of this module, where
it looks them up at call time.  A name that is already bound is left as
it is.  Reading a layer name from this module before a command has
loaded it imports its layer (a module ``__getattr__``).  So a caller may
read and rebind any of these names here, before or after the first
command runs, and every later command calls the rebinding.
"""

from __future__ import annotations

import argparse
import glob
import importlib
import json
import os
import sys

from . import __version__
from .records import Record

# the names the commands call, by layer module; see ``_use``
_LAYER_NAMES = {
    "ore": ("json_int", "operator_from_json", "operator_to_json"),
    "walks": (
        "CountTable", "cached_table", "origin_sequence", "parse_step_set", "table_to_json",
        "trivial_operator", "walk_count",
    ),
    "guess": (
        "Bounds", "TemplateError", "assemble_system", "build_template", "filter_candidates",
        "nullspace", "plan_points",
    ),
    "certify": ("certify_operator",),
    "eliminate": ("EliminationFailure", "takayama_pipeline", "uni_from_json", "uni_to_json"),
    "closedform": ("CLOSED_FORMS", "hypergeom_term", "max_nonneg_root", "prove_equality"),
}

# sorted(closedform.CLOSED_FORMS), kept here so that building the parser
# loads no closed form; a test holds the two equal
_CLOSED_FORM_NAMES = ("gessel", "kreweras")

_DEFAULT_BOUNDS = "deg_n=2,deg_i=2,deg_j=2,ord_sn=3,ord_si=1,ord_sj=1"


def _use(*modules: str):
    """Import the layer ``modules`` and bind the names of ``_LAYER_NAMES``
    from them as globals here, except a name that is already bound."""
    scope = globals()
    for module in modules:
        layer = importlib.import_module(f"{__package__}.{module}")
        for name in _LAYER_NAMES[module]:
            scope.setdefault(name, getattr(layer, name))


def __getattr__(name: str):
    # a layer name read from outside before a command has loaded it
    for module, names in _LAYER_NAMES.items():
        if name in names:
            _use(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _progress(msg: str):
    print(msg, file=sys.stderr)


def parse_bounds(text: str) -> Bounds:
    """Parse 'deg_n=2,deg_i=2,...,ord_sj=1[,total=4]' into Bounds; a key
    given twice (``total`` and ``total_poly_deg`` are one key) or a value
    that is not a decimal integer (``json_int``) raises TemplateError."""
    _use("ore", "guess")
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


class PipelineConfig(Record):
    """Effective options of a run; embedded verbatim in every artifact."""

    __slots__ = (
        "steps", "shape", "bounds", "margin", "multiplier_bound", "diag_limit", "closed_form",
    )

    def __init__(
        self, steps: str, shape: str = "full", bounds: list[str] | None = None, margin: int = 20,
        multiplier_bound: int | None = None, diag_limit: int = 500, closed_form: str | None = None,
    ):
        bounds = [] if bounds is None else bounds
        self._init(steps, shape, bounds, margin, multiplier_bound, diag_limit, closed_form)


def _meta(config: PipelineConfig) -> dict:
    return {"version": __version__, "config": {f: getattr(config, f) for f in config.__slots__}}


def _dump(obj: dict, out: str | None):
    text = json.dumps(obj, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
        print(out)
    else:
        print(text)


def count(steps, n, i, j):
    """Print the exact number of n-step walks from the origin to (i, j);
    0 for a negative coordinate or a point beyond the light cone."""
    _use("walks")
    print(walk_count(parse_step_set(steps), n, i, j))


def table(steps, n_max, out):
    """Export the count table to n = n-max as JSON (decimal-string entries,
    exact beyond 2^53)."""
    _use("walks")
    tbl = CountTable(parse_step_set(steps), n_max)
    text = json.dumps(table_to_json(tbl), sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        print(out)
    else:
        print(text)


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


def guess(steps, bounds, shape, margin, out):
    """Search an ansatz for annihilating operators; write candidates as JSON.

    An --out that already holds candidate files is refused before any
    guessing, so that the directory never mixes candidates of two runs."""
    _use("ore", "walks", "guess")
    stale = glob.glob(os.path.join(glob.escape(out), "candidate_*.json"))
    if stale:
        raise ValueError(
            f"{out} already holds candidate files ({len(stale)} candidate_*.json); "
            "remove them or choose another --out"
        )
    config = PipelineConfig(
        steps=steps, shape=shape, bounds=bounds or [_DEFAULT_BOUNDS], margin=margin,
    )
    candidates, _, _ = _run_guess(config)
    os.makedirs(out, exist_ok=True)
    for k, op in enumerate(candidates):
        payload = {"meta": _meta(config), "operator": operator_to_json(op)}
        path = os.path.join(out, f"candidate_{k:03d}.json")
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(path)
    if not candidates:
        print("no candidates", file=sys.stderr)
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


def certify(steps, operator_file, out):
    """Certify (or refute) that an operator annihilates the walk counts."""
    _use("ore", "walks", "certify")
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


def eliminate(steps, operator_files, multiplier_bound, diag_limit, out):
    """Combine certified annihilators into a pure recurrence in n for
    the origin-return counts."""
    _use("ore", "walks", "eliminate")
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
        print(e, file=sys.stderr)
        sys.exit(1)
    _dump({"meta": _meta(config), "operator": uni_to_json(p)}, out)


def _validate_recurrence(op: UniOperator, step_set: StepSet, n_check: int) -> int | None:
    """Oracle gate for imported recurrences: the first n in 0..n_check at
    which the recurrence fails on the origin sequence, or None.  Each
    caller first requires an order below n_check, so that the check covers
    at least one window, and names its own option when it is not."""
    seq = origin_sequence(step_set, n_check)
    return op.first_failure(seq, range(n_check - op.order() + 1))


def import_recurrence(recurrence_file, steps, n_check, out):
    """Load an externally supplied recurrence, validate it against the
    counting oracle, and emit it in normalized form."""
    _use("walks", "eliminate")
    config = PipelineConfig(steps=steps, diag_limit=n_check)
    op = _load(recurrence_file, uni_from_json)
    if op.order() >= n_check:
        raise ValueError("--n-check must exceed the recurrence order")
    bad = _validate_recurrence(op, parse_step_set(steps), n_check)
    if bad is not None:
        print(f"rejected: fails sequence check at n={bad}", file=sys.stderr)
        sys.exit(1)
    _dump({"meta": _meta(config), "operator": uni_to_json(op)}, out)


def check_closed_form(which, m_max):
    """Check the built-in closed form, its terms built from the ratio of
    its Pochhammer parameters, against the origin counts of its walks."""
    _use("walks", "closedform")
    step_set, term = CLOSED_FORMS[which]
    n_max = term.period * m_max
    pairs = zip(term.sequence(n_max), origin_sequence(step_set, n_max))
    bad = next((n for n, (value, count) in enumerate(pairs) if value != count), None)
    if bad is not None:
        print(f"mismatch at n={bad}", file=sys.stderr)
        sys.exit(1)
    print(f"closed form {which}: OK (values to n={n_max})")


def prove(steps, which, import_file, bounds, shape, margin, multiplier_bound, diag_limit, out):
    """End-to-end proof: guess, certify, eliminate, and match the closed
    form; or validate an imported recurrence and do the final step only."""
    _use("walks", "eliminate", "closedform")
    config = PipelineConfig(
        steps=steps, shape=shape, bounds=bounds or [_DEFAULT_BOUNDS], margin=margin,
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
        _use("guess", "certify")
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


def _count(text: str) -> int:
    """The type of an option that counts something: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is not in the range x>=0")
    return value


def _parser(prog: str) -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The command line and its parser per command name.  A command's
    parser has the command function as its ``run`` default, called with
    the parsed options as keywords.  No parser accepts an abbreviated
    option.  A repeatable option (``--bounds``) parses to None when it is
    never given, and the command applies its default then."""
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Quarter-plane walk counting, operator guessing, certification, "
        "elimination, and closed-form proofs.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(run, name=None, steps=True):
        doc = run.__doc__
        sub = commands.add_parser(
            name or run.__name__, help=doc.split(".")[0], description=doc, allow_abbrev=False,
        )
        sub.set_defaults(run=run)
        if steps:
            sub.add_argument(
                "--steps", required=True, help="Comma-separated step names, e.g. E,W,NE,SW"
            )
        return sub

    def guessing(sub):
        sub.add_argument(
            "--bounds", action="append",
            help=f"Ansatz caps; repeat for more templates (default: {_DEFAULT_BOUNDS})",
        )
        sub.add_argument("--shape", choices=["full", "quasiholonomic"], default="full")
        sub.add_argument("--margin", type=_count, default=20,
                         help="Extra sample points beyond the unknown count (default: 20).")

    def eliminating(sub):
        sub.add_argument("--multiplier-bound", type=_count)
        sub.add_argument("--diag-limit", type=_count, default=500, help="(default: 500)")

    sub = command(count)
    for name in ("--n", "--i", "--j"):
        sub.add_argument(name, type=int, required=True)

    sub = command(table)
    sub.add_argument("--n-max", type=_count, required=True)
    sub.add_argument("--out", help="Write the table JSON here instead of stdout.")

    sub = command(guess)
    guessing(sub)
    sub.add_argument("--out", required=True, help="Directory for candidate JSON files.")

    sub = command(certify)
    sub.add_argument("operator_file")
    sub.add_argument("--out", help="Write the certificate JSON here.")

    sub = command(eliminate)
    sub.add_argument("operator_files", nargs="+")
    eliminating(sub)
    sub.add_argument("--out")

    sub = command(import_recurrence, "import-recurrence")
    sub.add_argument("recurrence_file")
    sub.add_argument("--n-check", type=_count, default=200,
                     help="Length of the origin sequence the recurrence is checked against "
                     "(default: 200).")
    sub.add_argument("--out")

    sub = command(check_closed_form, "check-closed-form", steps=False)
    sub.add_argument("--closed-form", dest="which", choices=_CLOSED_FORM_NAMES, required=True)
    sub.add_argument("--m-max", type=_count, default=13, help="(default: 13)")

    sub = command(prove)
    sub.add_argument("--closed-form", dest="which", choices=_CLOSED_FORM_NAMES, required=True)
    sub.add_argument("--import-recurrence", dest="import_file",
                     help="Skip guessing/elimination and use this recurrence for the proof.")
    guessing(sub)
    eliminating(sub)
    sub.add_argument("--out", help="Write the full report JSON here.")
    return parser, commands.choices


def _operational_errors() -> tuple[type[Exception], ...]:
    """The exceptions that ``main`` reports in one line.  The elimination's
    own two are named only once its module is loaded: before that no
    command can have raised them."""
    eliminate = sys.modules.get(f"{__package__}.eliminate")
    if eliminate is None:
        return (ValueError, OSError)
    return (ValueError, OSError, eliminate.EliminationError, eliminate.VerificationError)


def main(args: list[str] | None = None, prog_name: str | None = None):
    """Run one command; ``args`` defaults to ``sys.argv[1:]``.

    This is the CLI's one error boundary: every exception a command raises
    exits 2, so that exit 1 stays reserved for the sound negatives the
    commands exit with themselves.  A usage error exits 2 from the parser.
    A ValueError (bad steps, bounds or template, a malformed file, an
    unsupported divisor), an OSError (a path that cannot be read or
    written), an EliminationError or a VerificationError is an operational
    error and prints one ``error: <message>`` line; any other exception is
    unexpected and prints its traceback first."""
    argv = sys.argv[1:] if args is None else list(args)
    parser, commands = _parser(prog_name or "quarterwalks")
    command = commands.get(argv[0]) if argv else None
    if command is None:
        if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
            # the top level has no options; parsing would take the value
            # of an unknown one for the command's name
            parser.error(f"unrecognized arguments: {argv[0]}")
        parser.parse_args(argv)  # no command: prints the help or a usage error, and exits
    # intermixed, so that positionals may follow options, as in
    # eliminate a.json --diag-limit 40 b.json
    opts = vars(command.parse_intermixed_args(argv[1:]))
    run = opts.pop("run")
    try:
        return run(**opts)
    except _operational_errors() as e:
        msg = str(e)
    except Exception as e:
        import traceback

        print(traceback.format_exc(), file=sys.stderr)
        msg = f"{type(e).__name__}: {e}"
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


if __name__ == "__main__":
    main()
