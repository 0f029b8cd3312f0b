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

Every command prints a report (JSON unless asked otherwise) and exits with
0 when all mathematical checks pass, 1 when a check fails (the report carries
the witnesses), and 2 on usage or parse errors.  Reports are deterministic up
to the timing fields (``timings``: ``total_s``, ``build_s`` for the quotient
category build, ``cohomology_s`` for the Hom-complexes of ``sod``, their
cohomology and the End comparison, and ``relations_s`` for the relation
sweep of ``validate``, ``stasheff`` and ``deform``): witness lists are
sorted.  The quotient category's tables are evaluated on demand and not by
its build, so its entries are paid for in ``cohomology_s`` by ``sod`` (only
those it reads) and by ``gamma build`` after ``build_s``, in
``validate_structure`` and serialization.
``sod``, ``gamma build``, ``deform`` and the ``filtration`` commands certify
nothing, and write no file, for an input algebra that fails its structure or
relation checks.  ``filtration appendix`` also reports FAIL, with a failed
``radical`` check, when the trace kernel of a valid input is not its radical.
``deform`` reports FAIL, with a failed ``higher_products`` check naming the
arity and one key of its table, and writes no file, for a base with a
nonzero m_1 or m_k, k >= 3: its Hochschild differential inserts only m_2, so
no ``cocycle`` verdict is given there.  ``stasheff --max-arity N`` needs N >= 1.
``--jobs N`` is accepted for compatibility and has no effect.

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
    HochschildCochain,
    HochschildError,
    _check_deformable,
    _deform,
    _higher_product,
    diagonal_bimodule,
    hochschild_differential,
    square_zero_extension,
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


def _elapsed(started: float) -> float:
    return round(time.perf_counter() - started, 6)


def _timed(fn, *args):
    """``fn(*args)`` and its time in seconds."""
    started = time.perf_counter()
    return fn(*args), _elapsed(started)


def _emit(report: dict, started: float) -> None:
    """Print the report; ``timings`` gets ``total_s`` before any stage times."""
    stages = report.pop("timings", {})
    report["timings"] = {"total_s": _elapsed(started), **stages}
    print(_dumps(report))


def _input_valid(command: str, spec, started: float) -> bool:
    """Structure and relation checks on the input algebra; on failure emit a
    FAIL report carrying their witnesses.  No certificate is given for an
    input that is not a valid A-infinity algebra."""
    structure = validate_structure(spec.category)
    relations = check_stasheff(spec.category, structure=structure)
    if structure.passed and relations.passed:
        return True
    _emit(
        {
            "command": command,
            "verdict": "FAIL",
            "structure": structure.to_json(),
            "relations": relations.to_json(),
        },
        started,
    )
    return False


def _write_out(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def cmd_validate(args) -> int:
    started = time.perf_counter()
    spec = parse_spec(args.file)
    structure = validate_structure(spec.category)
    relations, relations_s = _timed(check_stasheff, spec.category, None, structure)
    ok = structure.passed and relations.passed
    _emit(
        {
            "command": "validate",
            "verdict": "PASS" if ok else "FAIL",
            "structure": structure.to_json(),
            "relations": relations.to_json(),
            "timings": {"relations_s": relations_s},
        },
        started,
    )
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_stasheff(args) -> int:
    started = time.perf_counter()
    spec = parse_spec(args.file)
    structure = validate_structure(spec.category)
    pre_ok = structure.check("degrees").passed and structure.check("composability").passed
    report, relations_s = _timed(check_stasheff, spec.category, args.max_arity, structure)
    ok = pre_ok and report.passed
    _emit(
        {
            "command": "stasheff",
            "verdict": "PASS" if ok else "FAIL",
            "structure": structure.to_json(),
            "relations": report.to_json(),
            "timings": {"relations_s": relations_s},
        },
        started,
    )
    return EXIT_PASS if ok else EXIT_FAIL


def _need_filtration(spec):
    if spec.filtration is None:
        raise SpecError("this command needs a filtration section in the input file")
    return spec.filtration


def _filtered_input(command: str, spec, started: float):
    """The filtration of the input when the algebra is valid and the
    filtration passes its compatibility check; else None, after emitting
    the FAIL report of the check that failed."""
    filt = _need_filtration(spec)
    if not _input_valid(command, spec, started):
        return None
    report = check_filtration(spec.category, filt)
    if report.passed:
        return filt
    _emit({"command": command, "verdict": "FAIL", "report": report.to_json()}, started)
    return None


def cmd_filtration_check(args) -> int:
    started = time.perf_counter()
    spec = parse_spec(args.file)
    if not _input_valid("filtration check", spec, started):
        return EXIT_FAIL
    filt = _need_filtration(spec)
    report = check_filtration(spec.category, filt)
    _emit(
        {
            "command": "filtration check",
            "verdict": "PASS" if report.passed else "FAIL",
            "levels": list(filt.dims()),
            "report": report.to_json(),
        },
        started,
    )
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_filtration_degree(args) -> int:
    started = time.perf_counter()
    spec = parse_spec(args.file)
    if not _input_valid("filtration degree", spec, started):
        return EXIT_FAIL
    filt = degree_filtration(spec.category)
    report = check_filtration(spec.category, filt)
    _write_out(
        args.output,
        serialize(category_to_dict(spec.category, filtration=filt, kappa=spec.kappa)),
    )
    _emit(
        {
            "command": "filtration degree",
            "verdict": "PASS" if report.passed else "FAIL",
            "levels": list(filt.dims()),
            "output": args.output,
            "report": report.to_json(),
        },
        started,
    )
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_filtration_appendix(args) -> int:
    started = time.perf_counter()
    spec = parse_spec(args.file)
    if not _input_valid("filtration appendix", spec, started):
        return EXIT_FAIL
    kappa = args.kappa if args.kappa is not None else spec.kappa
    if kappa is None:
        raise SpecError("appendix construction needs --kappa or a kappa field")
    try:
        filt, params = appendix_filtration(spec.category, kappa)
    except RadicalError as exc:  # a valid input whose radical is refused
        report = ValidationReport()
        report.add("radical", False, detail=str(exc), witnesses=[exc.witness])
        _emit({"command": "filtration appendix", "verdict": "FAIL", "report": report.to_json()}, started)
        return EXIT_FAIL
    report = check_filtration(spec.category, filt)
    _write_out(
        args.output,
        serialize(category_to_dict(spec.category, filtration=filt, kappa=kappa)),
    )
    _emit(
        {
            "command": "filtration appendix",
            "verdict": "PASS" if report.passed else "FAIL",
            "kappa": kappa,
            "radical_dim": params.radical.dim,
            "nil_index": params.nil_index,
            "N": params.big_n,
            "levels": list(filt.dims()),
            "output": args.output,
            "report": report.to_json(),
        },
        started,
    )
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_gamma_build(args) -> int:
    started = time.perf_counter()
    spec = parse_spec(args.file)
    filt = _filtered_input("gamma build", spec, started)
    if filt is None:
        return EXIT_FAIL
    aus, build_s = _timed(build_auslander, spec.category, filt)
    structure = validate_structure(aus.gamma)
    _write_out(args.output, serialize(category_to_dict(aus.gamma)))
    _emit(
        {
            "command": "gamma build",
            "verdict": "PASS" if structure.passed else "FAIL",
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
        },
        started,
    )
    return EXIT_PASS if structure.passed else EXIT_FAIL


def cmd_sod(args) -> int:
    started = time.perf_counter()
    spec = parse_spec(args.file)
    filt = _filtered_input("sod", spec, started)
    if filt is None:
        return EXIT_FAIL
    aus, build_s = _timed(build_auslander, spec.category, filt)
    rep, cohomology_s = _timed(sod_report, aus)
    data = rep.to_json()
    data["command"] = "sod"
    data["timings"] = {"build_s": build_s, "cohomology_s": cohomology_s}
    if args.format == "text":
        print(f"semiorthogonality report: {data['verdict']} (n = {rep.n})")
        print(f"H(R/F^1) dims: {data['rbar_cohomology_dims']}")

        def show(name, tab):
            print(name)
            for row in tab:
                print("  " + " ".join(str(cell["total"]).rjust(3) for cell in row))

        show("H Hom(P_j, S_i) total dims (rows i, cols j):", data["hom_P_S_dims"])
        show("H Hom(S_j, S_i) total dims (rows i, cols j):", data["hom_S_S_dims"])
        if rep.failures:
            print(f"failures: {json.dumps(rep.failures)}")
        print(f"timings: build_s {build_s}, cohomology_s {cohomology_s}, total_s {_elapsed(started)}")
    else:
        _emit(data, started)
    return EXIT_PASS if rep.passed else EXIT_FAIL


def cmd_deform(args) -> int:
    started = time.perf_counter()
    spec = parse_spec(args.file)
    if not _input_valid("deform", spec, started):
        return EXIT_FAIL
    cat = spec.category
    raw = _load_cochain(args.cochain, cat)
    module = diagonal_bimodule(cat)
    table = {
        key: {f"M.{lab}": c for lab, c in vec.items()}
        for key, vec in raw["table"].items()
    }
    eta = HochschildCochain(cat, module, raw["arity"], table)
    _check_deformable(cat, module, eta)
    higher = _higher_product(cat)
    if higher:  # the differential inserts only m_2: no cocycle verdict here
        k, key = higher
        report = ValidationReport()
        needs = "m_1 = 0 and no m_k, k >= 3" if k == 1 else "no m_k, k >= 3"
        report.add("higher_products", False, detail=f"m_{k} is nonzero; deform needs a base with {needs}",
                   witnesses=[{"arity": k, "tuple": list(key)}])
        _emit({"command": "deform", "verdict": "FAIL", "report": report.to_json()}, started)
        return EXIT_FAIL
    ext = square_zero_extension(cat, module, eta.arity - 2)
    cocycle = hochschild_differential(eta, ext).is_zero()
    deformed = _deform(cat, ext, eta)
    structure = validate_structure(deformed)
    relations, relations_s = _timed(check_stasheff, deformed, None, structure)
    ok = structure.passed and relations.passed
    _write_out(args.output, serialize(category_to_dict(deformed)))
    _emit(
        {
            "command": "deform",
            "verdict": "PASS" if ok else "FAIL",
            "cocycle": cocycle,
            "output": args.output,
            "structure": structure.to_json(),
            "relations": relations.to_json(),
            "timings": {"relations_s": relations_s},
        },
        started,
    )
    return EXIT_PASS if ok else EXIT_FAIL


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
    try:
        return globals()[args.func](args)
    except (SpecError, FiltrationError, HochschildError, ModuleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
