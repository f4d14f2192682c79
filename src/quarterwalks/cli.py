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
imports the layer modules it calls and binds the names that
``quarterwalks._EXPORTS`` maps to them (``cached_table``, ``nullspace``,
...) as globals of this module, where it looks them up at call time.  A
name that is already bound is left as it is.  Reading an export from
this module before a command has loaded it imports its layer (a module
``__getattr__``).  So a caller may read and rebind any of these names
here, before or after the first command runs, and every later command
calls the rebinding.

``main`` returns or raises ``SystemExit``, so that it can run in-process;
``run_and_exit``, the command-line entry, calls it and skips the
interpreter's teardown.
"""

from __future__ import annotations

import argparse
import atexit
import importlib
import json
import os
import sys

from . import _EXPORTS, __version__
from .records import json_int

# sorted(closedform.CLOSED_FORMS), kept here so that building the parser
# loads no closed form; a test holds the two equal
_CLOSED_FORM_NAMES = ("gessel", "kreweras")

_DEFAULT_BOUNDS = "deg_n=2,deg_i=2,deg_j=2,ord_sn=3,ord_si=1,ord_sj=1"


def _use(*modules: str):
    """Import the layer ``modules`` and bind every export that
    ``quarterwalks._EXPORTS`` maps to one of them as a global here, except
    a name that is already bound."""
    scope = globals()
    layers = {m: importlib.import_module(f"{__package__}.{m}") for m in modules}
    for name, module in _EXPORTS.items():
        if module in layers:
            scope.setdefault(name, getattr(layers[module], name))


def __getattr__(name: str):
    # a package export read from outside before a command has loaded it
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _use(_EXPORTS[name])
    return globals()[name]


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
        if key not in Bounds.__slots__:
            raise TemplateError(f"unknown bounds key {key!r}")
        if key in fields:
            raise TemplateError(f"bounds key {key!r} given twice")
        try:
            fields[key] = json_int(value.strip())
        except ValueError:
            raise TemplateError(f"bounds key {key!r}: {value!r} is not an integer") from None
    return Bounds(**fields)


def _meta(
    steps: str, shape: str = "full", bounds=(), margin: int = 20,
    multiplier_bound: int | None = None, diag_limit: int = 500, closed_form: str | None = None,
) -> dict:
    """The header of every artifact: the package version and the run's
    effective options, each written as the command applied it."""
    config = {
        "steps": steps, "shape": shape, "bounds": list(bounds), "margin": margin,
        "multiplier_bound": multiplier_bound, "diag_limit": diag_limit, "closed_form": closed_form,
    }
    return {"version": __version__, "config": config}


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
    from .walks import table_to_json

    tbl = CountTable(parse_step_set(steps), n_max)
    text = json.dumps(table_to_json(tbl), sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        print(out)
    else:
        print(text)


def _run_guess(steps: str, bounds: list[str], shape: str, margin: int):
    """Shared guessing round, one template per ``bounds`` text; returns
    (candidates, oracle)."""
    candidates = []
    oracle = cached_table(parse_step_set(steps))
    for btext in bounds:
        template = build_template(parse_bounds(btext), shape)
        plan = plan_points(template, margin)
        _progress(
            f"template {btext} ({shape}): {len(template)} unknowns, {len(plan.points)} points"
        )
        system = assemble_system(template, oracle, plan.points)
        basis = nullspace(system)
        _progress(f"kernel dimension {len(basis)}")
        found = filter_candidates(basis, template, oracle, plan.fresh_points)
        _progress(f"{len(found)} candidate(s) survive fresh points")
        for op in found:
            if op not in candidates:
                candidates.append(op)
    return candidates, oracle


def guess(steps, bounds, shape, margin, out):
    """Search an ansatz for annihilating operators; write candidates as JSON.

    An --out that already holds candidate files is refused before any
    guessing, so that the directory never mixes candidates of two runs."""
    import glob

    _use("ore", "walks", "guess")
    stale = glob.glob(os.path.join(glob.escape(out), "candidate_*.json"))
    if stale:
        raise ValueError(
            f"{out} already holds candidate files ({len(stale)} candidate_*.json); "
            "remove them or choose another --out"
        )
    bounds = bounds or [_DEFAULT_BOUNDS]
    candidates, _ = _run_guess(steps, bounds, shape, margin)
    os.makedirs(out, exist_ok=True)
    for k, op in enumerate(candidates):
        payload = {"meta": _meta(steps, shape, bounds, margin), "operator": operator_to_json(op)}
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
    step_set = parse_step_set(steps)
    op = _load(operator_file, operator_from_json)
    oracle = cached_table(step_set)
    cert = certify_operator(op, oracle)
    report = {
        "meta": _meta(steps),
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
    _use("ore", "walks", "exactmath", "eliminate")
    step_set = parse_step_set(steps)
    ops = [_load(p, operator_from_json) for p in operator_files]
    _progress(f"streaming origin sequence to n = {diag_limit}")
    diagonal = origin_sequence(step_set, diag_limit)
    try:
        p = takayama_pipeline(ops, diagonal, multiplier_bound)
    except EliminationFailure as e:
        print(e, file=sys.stderr)
        sys.exit(1)
    meta = _meta(steps, multiplier_bound=multiplier_bound, diag_limit=diag_limit)
    _dump({"meta": meta, "operator": uni_to_json(p)}, out)


def _imported(path: str, step_set: StepSet, n_check: int):
    """The recurrence in the file ``path``, the first n at which it fails
    on the origin sequence of ``step_set`` to n_check, or None, and that
    sequence.  ``UniOperator.first_failure`` checks every window and
    raises ValueError when n_check leaves fewer than two."""
    op = _load(path, uni_from_json)
    seq = origin_sequence(step_set, n_check)
    return op, op.first_failure(seq), seq


def import_recurrence(recurrence_file, steps, n_check, out):
    """Load an externally supplied recurrence, validate it against the
    counting oracle, and emit it in normalized form."""
    _use("walks", "exactmath")
    op, bad, _ = _imported(recurrence_file, parse_step_set(steps), n_check)
    if bad is not None:
        print(f"rejected: fails sequence check at n={bad}", file=sys.stderr)
        sys.exit(1)
    _dump({"meta": _meta(steps, diag_limit=n_check), "operator": uni_to_json(op)}, out)


def check_closed_form(which, m_max):
    """Check the built-in closed form, its terms built from the ratio of
    its Pochhammer parameters, against the origin counts of its walks.
    The check runs to m = m_max >= 1, past n = 0, where the term and the
    count are both 1 for every closed form."""
    _use("walks", "closedform")
    step_set, term = CLOSED_FORMS[which]
    n_max = term.period * m_max
    bad = term.first_mismatch(origin_sequence(step_set, n_max))
    if bad is not None:
        print(f"mismatch at n={bad}", file=sys.stderr)
        sys.exit(1)
    print(f"closed form {which}: OK (values to n={n_max})")


def _fail(report: dict, out: str | None, status: str, **fields):
    """End ``prove`` in a negative: write ``report`` with ``status`` and
    ``fields`` added, and exit 1."""
    report.update(fields, status=status)
    _dump(report, out)
    sys.exit(1)


def prove(steps, which, import_file, bounds, shape, margin, multiplier_bound, diag_limit, out):
    """End-to-end proof: guess, certify, eliminate, and match the closed
    form; or validate an imported recurrence and do the final step only.
    Every f(n; 0, 0) read is from the origin sequence that the recurrence
    was checked on, extended when the initial values reach past it."""
    _use("walks", "exactmath", "closedform")
    bounds = bounds or [_DEFAULT_BOUNDS]
    meta = _meta(steps, shape, bounds, margin, multiplier_bound, diag_limit, which)
    term = hypergeom_term(which)
    report: dict = {"meta": meta, "closed_form": which}
    step_set = parse_step_set(steps)

    if import_file:
        p, bad, origin = _imported(import_file, step_set, diag_limit)
        report["recurrence_source"] = "imported"
        report["oracle_check"] = {"n_checked": diag_limit, "ok": bad is None, "failing_n": bad}
        if bad is not None:
            _fail(report, out, f"REJECTED(import fails sequence check at n={bad})")
    else:
        _use("guess", "certify", "eliminate")
        candidates, oracle = _run_guess(steps, bounds, shape, margin)
        report["candidates"] = len(candidates)
        if not candidates:
            _fail(report, out, "FAILED(no candidates)")
        certified = [op for op in candidates if certify_operator(op, oracle).certified]
        _progress(f"{len(certified)} of {len(candidates)} candidates certified")
        report["certified"] = len(certified)
        if not certified:
            _fail(report, out, "FAILED(no certified operators)")
        t = trivial_operator(step_set)
        if t not in certified:
            certified.insert(0, t)
        _progress(f"streaming origin sequence to n = {diag_limit}")
        origin = origin_sequence(step_set, diag_limit)
        try:
            p = takayama_pipeline(certified, origin, multiplier_bound)
        except EliminationFailure as e:
            _fail(report, out, "FAILED(elimination)", attempts=e.attempts)
        report["recurrence_source"] = "pipeline"
        report["reverified_to_n"] = diag_limit
    report["recurrence"] = uni_to_json(p)
    need = p.order() + max_nonneg_root(p.leading_cleared())
    if need >= len(origin):
        origin = origin_sequence(step_set, need)
    verdict = prove_equality(p, term, origin)
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


def _integer(low: int | None = None):
    """The type of an integer option, at least ``low`` when one is given:
    decimal digits with an optional sign, as ``json_int`` reads them, so
    "1_0", " 5" and fullwidth digits are usage errors."""

    def parse(text: str) -> int:
        try:
            value = json_int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"{value} is not in the range x>={low}")
        return value

    return parse


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
        sub.add_argument("--margin", type=_integer(0), default=20,
                         help="Extra sample points beyond the unknown count (default: 20).")

    def eliminating(sub):
        sub.add_argument("--multiplier-bound", type=_integer(0))
        sub.add_argument("--diag-limit", type=_integer(0), default=500, help="(default: 500)")

    sub = command(count)
    for name in ("--n", "--i", "--j"):
        sub.add_argument(name, type=_integer(), required=True)

    sub = command(table)
    sub.add_argument("--n-max", type=_integer(0), required=True)
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
    sub.add_argument("--n-check", type=_integer(0), default=200,
                     help="Length of the origin sequence the recurrence is checked against "
                     "(default: 200).")
    sub.add_argument("--out")

    sub = command(check_closed_form, "check-closed-form", steps=False)
    sub.add_argument("--closed-form", dest="which", choices=_CLOSED_FORM_NAMES, required=True)
    sub.add_argument("--m-max", type=_integer(1), default=13, help="(default: 13)")

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


def run_and_exit():
    """The command-line entry: run ``main`` and exit with the code the
    interpreter would give its ``SystemExit``.  The ``atexit`` handlers run
    and stdout and stderr are flushed, and then ``os._exit`` skips the
    interpreter's teardown (every file is closed by its ``with`` block).
    A failing flush, such as to a closed pipe, falls back to ``sys.exit``."""
    try:
        main()
        code = None
    except SystemExit as e:
        code = e.code
    if code is not None and not isinstance(code, int):
        print(code, file=sys.stderr)
        code = 1
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:
        sys.exit(code)
    os._exit(code or 0)


if __name__ == "__main__":
    run_and_exit()
