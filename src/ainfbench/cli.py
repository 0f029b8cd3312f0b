"""Command line entry point.

Subcommands:

    validate <file> [--jobs N]              structure + relation checks
    stasheff <file> [--max-arity N] [--jobs N]
    filtration check <file>
    filtration degree <file> -o OUT
    filtration appendix <file> --kappa K -o OUT
    gamma build <file> -o OUT [--jobs N]
    sod <file> [--format json|text] [--jobs N]
    deform <file> --cochain <file> -o OUT

The report envelope, the same for every command:
- the report is ``{"command", "verdict", <the command's fields>, "timings"}``
  in that key order.  ``sod`` keeps its own order: ``verdict``, ``n``, its
  tables and checks, then ``command`` and ``timings``.  ``sod --format text``
  prints the same report as lines, the timings last;
- ``timings`` holds ``total_s`` first, then the stage times: ``build_s`` for
  the quotient category build, ``cohomology_s`` for the Hom-complexes of
  ``sod``, their cohomology and the End comparison, and ``relations_s`` for
  the relation sweep of ``validate``, ``stasheff`` and ``deform``;
- the exit code is 0 for PASS and 1 for FAIL (the report carries the
  witnesses).  A usage or parse error prints ``usage:`` or ``error:`` on
  stderr, no report, and exits 2;
- ``sod``, ``gamma build``, ``deform`` and the ``filtration`` commands
  certify nothing, and write no file, for an input algebra that fails its
  structure or relation checks (the input gate): they report FAIL with
  those checks' witnesses.  ``filtration check`` runs the gate before it
  asks for the filtration section; ``sod`` and ``gamma build`` ask first.

``main`` starts the clock, parses the input file and calls the handler with
both; every report, a refusal's too, is printed by one emitter, which also
maps the verdict to the exit code.  Reports are deterministic up to
``timings``: witness lists are sorted.  The quotient category's tables are
evaluated on demand and not by its build, so its entries are paid for in
``cohomology_s`` by ``sod`` (only those it reads) and by ``gamma build``
after ``build_s``, in ``validate_structure`` and serialization.
``filtration appendix`` also reports FAIL, with a failed ``radical`` check,
when the trace kernel of a valid input is not its radical.  ``deform``
builds by ``hochschild.deform_by_cocycle``, which holds its gates: a
cochain off the base, of arity 0 or of internal degree other than 0 is a
usage error (exit 2); a base with a nonzero m_1 or m_k, k >= 3 is then
refused (``HigherProductsError``), reported as FAIL with a failed
``higher_products`` check naming the arity and one key of its table, and no
file is written: the Hochschild differential inserts only m_2, so no
``cocycle`` verdict is given there.  ``stasheff --max-arity N`` needs
N >= 1.  ``--jobs N`` is accepted for compatibility and has no effect.

``gamma build`` reports ``lift_independence`` from the build itself: it runs
only on a filtration that passes its compatibility check, whose flag proof
the build reuses (and refuses to build without), and the index
inequalities, which hold for every chain of objects (proved in the
``auslander`` docstring); together they make the induced products
independent of the coset representatives.  The same facts, with R's relations from the
input gate, certify the quotient category's relations (``"relations_method":
"quotient"``, see ``auslander``), so ``gamma build`` does not sweep them;
``validate`` and ``stasheff`` run the direct sweep on the written file.

``main`` builds the argument parser on its first call and reuses it for the
life of the process.  Each subcommand names its handler, which is looked up
in this module at call time, so a rebound ``cmd_*`` (a tracer's or a test's
wrapper) takes effect even after the parser was built.  Reports and files
are written by ``specfile``'s one JSON writer, byte for byte as
``json.dumps(obj, indent=2)`` would write them.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .ainf import ValidationReport, check_stasheff, validate_structure
from .auslander import build_auslander
from .filtration import (
    FiltrationError,
    RadicalError,
    appendix_filtration,
    check_filtration,
    degree_filtration,
)
from .hochschild import (
    HigherProductsError,
    HochschildCochain,
    HochschildError,
    deform_by_cocycle,
    diagonal_bimodule,
)
from .perfmod import ModuleError, sod_report
from .specfile import (
    SpecError,
    _dumps,
    _parse_cochain,
    _read_json,
    category_to_dict,
    parse_field,
    parse_spec,
    serialize,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

JOBS_HELP = "accepted for compatibility; has no effect (every command runs serially)"


class _Refused(Exception):
    """A FAIL before any file is written (the input gate, a filtration that
    fails its check, a refused radical or base); its one argument is the
    report body, which ``main`` prints."""


def _elapsed(started: float) -> float:
    return round(time.perf_counter() - started, 6)


def _timed(fn, *args):
    """``fn(*args)`` and its time in seconds."""
    started = time.perf_counter()
    return fn(*args), _elapsed(started)


def _emit(report: dict, started: float, render=_dumps) -> int:
    """Print ``render(report)``, ``timings`` last with ``total_s`` before any
    stage times; the exit code of the report's verdict."""
    stages = report.pop("timings", {})
    report["timings"] = {"total_s": _elapsed(started), **stages}
    print(render(report))
    return EXIT_PASS if report["verdict"] == "PASS" else EXIT_FAIL


def _report(args, ok: bool, body: dict, started: float) -> int:
    """Emit ``{"command", "verdict", **body}``: the verdict PASS when ``ok``."""
    command = f"{args.command} {args.subcommand}" if "subcommand" in args else args.command
    return _emit({"command": command, "verdict": "PASS" if ok else "FAIL", **body}, started)


def _checked(cat, max_arity=None, needs=None) -> tuple:
    """The verdict and report body of the structure checks and the relation
    sweep on ``cat``: PASS when the sweep passes and so do the structure
    checks named in ``needs`` (every one when None)."""
    structure = validate_structure(cat)
    relations, relations_s = _timed(check_stasheff, cat, max_arity, structure)
    gate = structure.passed if needs is None else all(structure.check(name).passed for name in needs)
    body = {"structure": structure.to_json(), "relations": relations.to_json(),
            "timings": {"relations_s": relations_s}}
    return gate and relations.passed, body


def _gate(spec) -> None:
    """No certificate for an input that is not a valid A-infinity algebra:
    refuse it with the witnesses of its structure and relation checks."""
    ok, body = _checked(spec.category)
    if not ok:
        del body["timings"]
        raise _Refused(body)


def _write_out(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def cmd_validate(args, spec, started) -> int:
    return _report(args, *_checked(spec.category), started)


def cmd_stasheff(args, spec, started) -> int:
    # the structure checks the sweep needs: stasheff's verdict ignores the rest
    return _report(args, *_checked(spec.category, args.max_arity, ("degrees", "composability")), started)


def _need_filtration(spec):
    if spec.filtration is None:
        raise SpecError("this command needs a filtration section in the input file")
    return spec.filtration


def cmd_filtration_check(args, spec, started) -> int:
    _gate(spec)
    filt = _need_filtration(spec)
    report = check_filtration(spec.category, filt)
    return _report(args, report.passed, {"levels": list(filt.dims()), "report": report.to_json()}, started)


def cmd_filtration_degree(args, spec, started) -> int:
    _gate(spec)
    filt = degree_filtration(spec.category)
    report = check_filtration(spec.category, filt)
    _write_out(
        args.output,
        serialize(category_to_dict(spec.category, filtration=filt, kappa=spec.kappa)),
    )
    body = {"levels": list(filt.dims()), "output": args.output, "report": report.to_json()}
    return _report(args, report.passed, body, started)


def cmd_filtration_appendix(args, spec, started) -> int:
    _gate(spec)
    kappa = args.kappa if args.kappa is not None else spec.kappa
    if kappa is None:
        raise SpecError("appendix construction needs --kappa or a kappa field")
    try:
        filt, params = appendix_filtration(spec.category, kappa)
    except RadicalError as exc:  # a valid input whose radical is refused
        report = ValidationReport()
        report.add("radical", False, detail=str(exc), witnesses=[exc.witness])
        raise _Refused({"report": report.to_json()})
    report = check_filtration(spec.category, filt)
    _write_out(
        args.output,
        serialize(category_to_dict(spec.category, filtration=filt, kappa=kappa)),
    )
    body = {
        "kappa": kappa,
        "radical_dim": params.radical.dim,
        "nil_index": params.nil_index,
        "N": params.big_n,
        "levels": list(filt.dims()),
        "output": args.output,
        "report": report.to_json(),
    }
    return _report(args, report.passed, body, started)


def _filtered_input(spec):
    """The filtration of a valid input that passes its compatibility check;
    the filtration section is asked for before the input gate runs."""
    filt = _need_filtration(spec)
    _gate(spec)
    report = check_filtration(spec.category, filt)
    if not report.passed:
        raise _Refused({"report": report.to_json()})
    return filt


def cmd_gamma_build(args, spec, started) -> int:
    aus, build_s = _timed(build_auslander, spec.category, _filtered_input(spec))
    structure = validate_structure(aus.gamma)
    _write_out(args.output, serialize(category_to_dict(aus.gamma)))
    body = {
        "objects": aus.n,
        "hom_dims": [list(row) for row in aus.hom_dims()],
        "total_dim": aus.gamma.total_dim(),
        # the filtration check and the index inequalities (a theorem)
        "lift_independence": True,
        "output": args.output,
        "structure": structure.to_json(),
        # R's relations (the input gate), compatibility and the build
        "relations_method": "quotient",
        "timings": {"build_s": build_s},
    }
    return _report(args, structure.passed, body, started)


def _sod_text(data: dict) -> str:
    lines = [
        f"semiorthogonality report: {data['verdict']} (n = {data['n']})",
        f"H(R/F^1) dims: {data['rbar_cohomology_dims']}",
    ]
    for name, key in (("P_j", "hom_P_S_dims"), ("S_j", "hom_S_S_dims")):
        lines.append(f"H Hom({name}, S_i) total dims (rows i, cols j):")
        lines += ["  " + " ".join(str(cell["total"]).rjust(3) for cell in row) for row in data[key]]
    if data["failures"]:
        lines.append(f"failures: {json.dumps(data['failures'])}")
    t = data["timings"]
    lines.append(f"timings: build_s {t['build_s']}, cohomology_s {t['cohomology_s']}, total_s {t['total_s']}")
    return "\n".join(lines)


def cmd_sod(args, spec, started) -> int:
    aus, build_s = _timed(build_auslander, spec.category, _filtered_input(spec))
    rep, cohomology_s = _timed(sod_report, aus)
    # sod's own key order: its verdict first, the command after its fields
    data = {**rep.to_json(), "command": "sod", "timings": {"build_s": build_s, "cohomology_s": cohomology_s}}
    return _emit(data, started, _sod_text if args.format == "text" else _dumps)


def cmd_deform(args, spec, started) -> int:
    _gate(spec)
    cat = spec.category
    raw = _load_cochain(args.cochain, cat)
    module = diagonal_bimodule(cat)
    table = {
        key: {f"M.{lab}": c for lab, c in vec.items()}
        for key, vec in raw["table"].items()
    }
    eta = HochschildCochain(cat, module, raw["arity"], table)
    try:
        deformed, cocycle = deform_by_cocycle(cat, module, eta)
    except HigherProductsError as exc:  # the differential inserts only m_2: no cocycle verdict here
        k = exc.arity
        report = ValidationReport()
        needs = "m_1 = 0 and no m_k, k >= 3" if k == 1 else "no m_k, k >= 3"
        report.add("higher_products", False, detail=f"m_{k} is nonzero; deform needs a base with {needs}",
                   witnesses=[{"arity": k, "tuple": list(exc.key)}])
        raise _Refused({"report": report.to_json()})
    ok, body = _checked(deformed)
    _write_out(args.output, serialize(category_to_dict(deformed)))
    return _report(args, ok, {"cocycle": cocycle, "output": args.output, **body}, started)


def _load_cochain(path: str, cat) -> dict:
    """The cochain in the file at ``path``, read once, over the labels of
    ``cat``: the ``cochain`` section of a spec file (an object with a
    ``field``, which must be the field of ``cat``; the rest of the file is
    not parsed), else a bare ``{"arity", "table"}`` object."""
    data = _read_json(path)
    if isinstance(data, dict) and "field" in data:
        if parse_field(data["field"]) != cat.field:
            raise SpecError(f"{path}: spec file field differs from the field of the input")
        if "cochain" not in data:
            raise SpecError(f"{path}: spec file has no cochain section")
        data = data["cochain"]
    return _parse_cochain(data, cat)


def _positive_int(text: str) -> int:
    """An integer >= 1: a relation sweep up to arity 0 or below checks nothing."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ainfbench",
        description="verification workbench for finite strictly unital "
        "A-infinity algebras and categories",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="structure and relation checks")
    p.add_argument("file")
    p.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
    p.set_defaults(func="cmd_validate")

    p = sub.add_parser("stasheff", help="evaluate the defining relations")
    p.add_argument("file")
    p.add_argument("--max-arity", type=_positive_int, default=None)
    p.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
    p.set_defaults(func="cmd_stasheff")

    p = sub.add_parser("filtration", help="filtration tools")
    fsub = p.add_subparsers(dest="subcommand", required=True)

    q = fsub.add_parser("check", help="verify the filtration in the file")
    q.add_argument("file")
    q.set_defaults(func="cmd_filtration_check")

    q = fsub.add_parser("degree", help="filtration by cohomological degree")
    q.add_argument("file")
    q.add_argument("-o", "--output", required=True)
    q.set_defaults(func="cmd_filtration_degree")

    q = fsub.add_parser("appendix", help="radical-power filtration for a "
                        "two-degree algebra")
    q.add_argument("file")
    q.add_argument("--kappa", type=int, default=None)
    q.add_argument("-o", "--output", required=True)
    q.set_defaults(func="cmd_filtration_appendix")

    p = sub.add_parser("gamma", help="quotient category tools")
    gsub = p.add_subparsers(dest="subcommand", required=True)
    q = gsub.add_parser("build", help="build the quotient category on 0..n-1")
    q.add_argument("file")
    q.add_argument("-o", "--output", required=True)
    q.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
    q.set_defaults(func="cmd_gamma_build")

    p = sub.add_parser("sod", help="semiorthogonality report")
    p.add_argument("file")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
    p.set_defaults(func="cmd_sod")

    p = sub.add_parser("deform", help="deform by a Hochschild cochain "
                       "(diagonal bimodule)")
    p.add_argument("file")
    p.add_argument("--cochain", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func="cmd_deform")

    return parser


_PARSER = None  # built by the first call of main, not at import


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    started = time.perf_counter()
    try:
        try:
            return globals()[args.func](args, parse_spec(args.file), started)
        except _Refused as refused:  # its report is printed under the handler below
            return _report(args, False, refused.args[0], started)
    except (SpecError, FiltrationError, HochschildError, ModuleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
