"""The report register: one SHA-256 per command line, kept in
``tests/report_register.json``.

Each case runs ``ainfbench.cli.main(argv)`` in-process and hashes its exit
code, stdout, stderr and the file it was asked to write (or that file's
absence), after every timing value is replaced by ``T`` and the work
directory by ``WORK``.  A usage error (exit 2) is hashed by its exit code and
the first word of stderr (``usage:`` or ``error:``) only, because argparse's
wording differs across Python versions.

The matrix runs every command (``stasheff`` also with ``--max-arity 3``,
``sod`` in JSON and text, ``deform`` by the cochain of ``fixtures/dual.json``)
on the four fixtures and on k[x]/x^3..x^6, Beilinson P^2, the trivial
extension (2, 1), the incompatible filtration, the DG input, toy and a
seeded graded input that fails its relations (``graded_non_ainf``), each
over Q, GF(3) and GF(5), then ``filtration check``, ``sod`` and ``gamma
build`` on every file that ``filtration appendix`` wrote, and a few usage
errors.  The slow cases, Beilinson P^3 and k[x]/x^10 over Q, run only from
the command line:

    python tests/register.py            # compare every case; exit 1 on a difference
    python tests/register.py --write    # rewrite the register from this checkout

The tier-1 test ``test_cli_report_register`` compares the matrix without the
slow cases.  pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not __package__:  # run as a script: test this checkout's src/
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from ainfbench import GF, QQ, cli  # noqa: E402
from ainfbench.specfile import category_to_dict, serialize  # noqa: E402
from tests.corpus import (  # noqa: E402
    beilinson_algebra,
    dg_closure_example,
    graded_non_ainf,
    incompatible_filtration,
    toy_algebra,
    trivial_extension,
    truncated_polynomial,
)

REGISTER = ROOT / "tests" / "report_register.json"
FIXTURES = ROOT / "fixtures"
COCHAIN = "fixtures/dual.json"
FIELDS = {"Q": QQ, "GF3": GF(3), "GF5": GF(5)}
TIMING = re.compile(r'("\w+_s": |\b\w+_s )-?[0-9][0-9.e+-]*')


def _unfiltered(make):
    return lambda field: (make(field), None)


CORPUS = {
    **{f"x{m}": _unfiltered(lambda f, m=m: truncated_polynomial(m, f)) for m in range(3, 7)},
    "beilinson-2": _unfiltered(lambda f: beilinson_algebra(2, f)),
    "trivext-2-1": _unfiltered(lambda f: trivial_extension(2, 1, f)),
    "incompatible": incompatible_filtration,
    "dg": dg_closure_example,
    "toy": _unfiltered(toy_algebra),
    "graded": _unfiltered(graded_non_ainf),
}
SLOW = {
    "beilinson-3": _unfiltered(lambda f: beilinson_algebra(3, f)),
    "x10": _unfiltered(lambda f: truncated_polynomial(10, f)),
}


def _commands(name: str, path: str) -> list:
    """(id, argv, output path or None) of every command on one input."""
    out = "WORK/" + name.replace("/", ".")
    appendix = f"{out}.appendix.json"
    runs = [
        ("validate", ["validate", path], None),
        ("stasheff", ["stasheff", path], None),
        ("stasheff --max-arity 3", ["stasheff", path, "--max-arity", "3"], None),
        ("filtration check", ["filtration", "check", path], None),
        ("filtration degree", ["filtration", "degree", path, "-o", f"{out}.degree.json"], f"{out}.degree.json"),
        ("filtration appendix", ["filtration", "appendix", path, "--kappa", "1", "-o", appendix], appendix),
        ("gamma build", ["gamma", "build", path, "-o", f"{out}.gamma.json"], f"{out}.gamma.json"),
        ("sod", ["sod", path], None),
        ("sod --format text", ["sod", path, "--format", "text"], None),
        ("deform", ["deform", path, "--cochain", COCHAIN, "-o", f"{out}.deformed.json"], f"{out}.deformed.json"),
        ("appendix: filtration check", ["filtration", "check", appendix], None),
        ("appendix: sod", ["sod", appendix], None),
        ("appendix: gamma build", ["gamma", "build", appendix, "-o", f"{out}.appendix.gamma.json"],
         f"{out}.appendix.gamma.json"),
    ]
    return [(f"{name}: {label}", argv, output) for label, argv, output in runs]


USAGE = [
    ("usage: unknown command", ["frobnicate"], None),
    ("usage: stasheff --max-arity 0", ["stasheff", "fixtures/toy.json", "--max-arity", "0"], None),
    ("usage: appendix without kappa", ["filtration", "appendix", "fixtures/toy.json", "-o", "WORK/nokappa.json"],
     "WORK/nokappa.json"),
    ("usage: missing file", ["validate", "WORK/missing.json"], None),
    ("usage: missing cochain", ["deform", "fixtures/dual.json", "--cochain", "WORK/missing.json", "-o",
                                "WORK/nocochain.json"], "WORK/nocochain.json"),
]


def cases(slow: bool) -> list:
    """Every (id, argv, output) in run order; input files and paths use the
    placeholder ``WORK`` and ``fixtures/`` for the fixtures."""
    out = []
    for fixture in ("toy", "dual", "nonassoc", "nonunital"):
        out += _commands(f"fixture-{fixture}", f"fixtures/{fixture}.json")
    for name in CORPUS:
        for fname in FIELDS:
            out += _commands(f"{name}/{fname}", f"WORK/{name}.{fname}.json")
    out += USAGE
    if slow:
        for name in SLOW:
            out += _commands(f"{name}/Q", f"WORK/{name}.Q.json")
    return out


def _write_inputs(work: Path, slow: bool) -> None:
    made = [(name, fname, make) for name, make in CORPUS.items() for fname in FIELDS]
    if slow:
        made += [(name, "Q", make) for name, make in SLOW.items()]
    for name, fname, make in made:
        alg, filt = make(FIELDS[fname])
        (work / f"{name}.{fname}.json").write_text(serialize(category_to_dict(alg, filtration=filt)),
                                                   encoding="utf-8")


def _digest(code: int, out: str, err: str, written) -> str:
    if code == cli.EXIT_USAGE:
        fields = [code, err.split(":", 1)[0]]
    else:
        fields = [code, TIMING.sub(r"\1T", out), err, written]
    return hashlib.sha256(json.dumps(fields).encode("utf-8")).hexdigest()


def run(slow: bool) -> dict:
    """{case id: digest} for this checkout."""
    digests = {}
    with tempfile.TemporaryDirectory(prefix="register-") as tmp:
        work = Path(tmp)
        _write_inputs(work, slow)

        def place(text: str) -> str:
            return text.replace("WORK", tmp).replace("fixtures/", f"{FIXTURES}/")

        def unplace(text):
            return None if text is None else text.replace(tmp, "WORK").replace(str(FIXTURES), "fixtures")

        for case, argv, output in cases(slow):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([place(a) for a in argv])
            path = Path(place(output)) if output else None
            written = path.read_text(encoding="utf-8") if path and path.exists() else None
            digests[case] = _digest(code, *map(unplace, (out.getvalue(), err.getvalue(), written)))
    return digests


def differences(got: dict) -> list:
    """Case ids whose digest differs from the register, or that only one side has."""
    kept = json.loads(REGISTER.read_text(encoding="utf-8"))
    if set(got) < set(kept):  # a run without the slow cases
        kept = {case: kept[case] for case in got}
    return sorted(case for case in set(got) | set(kept) if got.get(case) != kept.get(case))


def main(argv: list) -> int:
    if argv not in ([], ["--write"]):
        print("usage: python tests/register.py [--write]", file=sys.stderr)
        return 2
    got = run(slow=True)
    if argv:
        REGISTER.write_text(json.dumps(got, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {len(got)} cases to {REGISTER.relative_to(ROOT)}")
        return 0
    bad = differences(got)
    for case in bad:
        print(f"differs: {case}")
    print(f"{len(got) - len(bad)} of {len(got)} cases match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
