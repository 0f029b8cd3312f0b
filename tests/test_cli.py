import builtins
import contextlib
import functools
import hashlib
import io
import json
import random
import re
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from ainfbench import GF, QQ, cli, scalars
from ainfbench.ainf import AInfCategory
from ainfbench.cli import main
from ainfbench.filtration import check_filtration, degree_filtration
from ainfbench.hochschild import diagonal_bimodule, hochschild_differential
from ainfbench.scalars import FieldError
from ainfbench.specfile import (
    SpecError,
    category_to_dict,
    parse_spec,
    parse_spec_dict,
    serialize,
)

from . import register
from .corpus import (
    LARGE_DENOMINATORS,
    beilinson_algebra,
    dg_closure_example,
    dual_numbers,
    incompatible_filtration,
    random_associative_algebra,
    random_cochain,
    rescaled,
    trivial_extension,
    truncated_polynomial,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
TOY = str(FIXTURES / "toy.json")
DUAL = str(FIXTURES / "dual.json")
NONASSOC = str(FIXTURES / "nonassoc.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# parsing


def test_parse_toy_fixture():
    spec = parse_spec(TOY)
    cat = spec.category
    assert cat.total_dim() == 3
    assert len(cat.mult[2]) == 5  # zero products are never stored
    assert len(cat.mult[3]) == 1
    assert spec.kappa == 1
    assert spec.filtration is not None
    assert spec.filtration.dims() == (3, 2, 1, 1, 0)


def test_parse_unknown_output_name():
    data = json.loads(Path(TOY).read_text())
    data["mult"][0]["output"] = {"z": "1"}
    with pytest.raises(SpecError) as err:
        parse_spec_dict(data)
    assert "'z'" in str(err.value)


def test_parse_empty_mult_is_valid():
    data = json.loads(Path(TOY).read_text())
    data["mult"] = []
    del data["filtration"]
    spec = parse_spec_dict(data)
    assert spec.category.mult == {}


def test_parse_rejects_unknown_fields():
    data = json.loads(Path(TOY).read_text())
    data["extra"] = 1
    with pytest.raises(SpecError) as err:
        parse_spec_dict(data)
    assert "extra" in str(err.value)


def test_parse_rejects_nonprime_characteristic():
    data = json.loads(Path(TOY).read_text())
    data["field"] = {"kind": "prime-field", "characteristic": 6}
    with pytest.raises(SpecError):
        parse_spec_dict(data)


def test_prime_characteristic_decided_by_miller_rabin():
    # exact below the limit: it agrees with trial division on every p < 10^4,
    # refuses the Carmichael number 561, 2^61 + 1 = 3 * 768614336404564651
    # and 318665857834031151167461, a strong pseudoprime to the first 12
    # prime bases; at the limit it refuses to decide
    def trial(p):
        return p > 1 and all(p % d for d in range(2, int(p ** 0.5) + 1))

    assert all(scalars._is_prime(p) == trial(p) for p in range(10 ** 4))
    for composite in (561, 2 ** 61 + 1, 318665857834031151167461):
        assert not scalars._is_prime(composite)
    assert scalars._is_prime(2 ** 61 - 1) and scalars._is_prime(10 ** 16 + 61)
    with pytest.raises(FieldError, match="too large"):
        GF(scalars._MR_LIMIT)


@pytest.mark.parametrize("p, code", [(2 ** 61 - 1, 0), (2 ** 61 + 1, 2), (3317044064679887385961981, 2)],
                         ids=["mersenne-61", "composite", "too-large"])
def test_cli_large_characteristic_is_decided_at_once(p, code, tmp_path, capsys):
    # trial division up to sqrt(p) stalled every command over GF(2^61 - 1)
    data = json.loads(Path(DUAL).read_text())
    data["field"] = {"kind": "prime-field", "characteristic": p}
    src = tmp_path / "dual.json"
    src.write_text(json.dumps(data))
    started = time.perf_counter()
    got, out, err = run(capsys, "validate", str(src))
    assert time.perf_counter() - started < 5
    if code == 0:
        assert got == 0 and json.loads(out)["verdict"] == "PASS"
    else:
        assert got == 2 and err.startswith("error:")


def test_parse_rejects_duplicate_labels():
    data = json.loads(Path(TOY).read_text())
    data["basis"].append({"name": "1", "source": "*", "target": "*", "degree": 0})
    with pytest.raises(SpecError) as err:
        parse_spec_dict(data)
    assert "duplicate" in str(err.value)


def test_parse_rejects_floats():
    data = json.loads(Path(TOY).read_text())
    data["mult"][0]["output"] = {"1": 1.5}
    with pytest.raises(SpecError):
        parse_spec_dict(data)


def test_roundtrip_byte_identical():
    spec = parse_spec(TOY)
    text1 = serialize(
        category_to_dict(spec.category, filtration=spec.filtration, kappa=spec.kappa)
    )
    assert text1 == Path(TOY).read_text()
    spec2 = parse_spec_dict(json.loads(text1))
    text2 = serialize(
        category_to_dict(spec2.category, filtration=spec2.filtration, kappa=spec2.kappa)
    )
    assert text2 == text1


# ---------------------------------------------------------------------------
# commands


def test_cli_sod_toy(capsys):
    code, out, _ = run(capsys, "sod", TOY, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "PASS"
    assert len(data["hom_P_S_dims"]) == 4
    assert len(data["hom_S_S_dims"]) == 4
    for i in range(4):
        assert data["hom_P_S_dims"][i][i]["total"] == 1
        for j in range(i + 1, 4):
            assert data["hom_P_S_dims"][i][j]["total"] == 0
            assert data["hom_S_S_dims"][i][j]["total"] == 0
    assert "timings" in data


@pytest.mark.parametrize("command", ["stasheff", "sod"])
def test_cli_sod_jobs_deterministic(capsys, command):
    code1, out1, _ = run(capsys, command, TOY, "--jobs", "1")
    code2, out2, _ = run(capsys, command, TOY, "--jobs", "2")
    assert code1 == code2 == 0
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("timings"), d2.pop("timings")
    assert d1 == d2


def test_cli_stasheff_nonassoc(capsys):
    code, out, _ = run(capsys, "stasheff", NONASSOC)
    assert code == 1
    data = json.loads(out)
    assert data["verdict"] == "FAIL"
    n3 = next(c for c in data["relations"]["checks"] if c["name"] == "stasheff_n3")
    assert ["x", "x", "x"] in [w["tuple"] for w in n3["witnesses"]]


def test_cli_gamma_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "gamma.json"
    code, out, _ = run(capsys, "gamma", "build", TOY, "-o", str(out_file))
    assert code == 0
    data = json.loads(out)
    assert data["hom_dims"] == [[3, 2, 1, 1], [2, 2, 1, 0], [2, 2, 2, 1], [1, 1, 1, 1]]
    assert data["lift_independence"] is True
    code2, out2, _ = run(capsys, "validate", str(out_file))
    assert code2 == 0
    # serialization of the parsed file is byte-identical
    spec = parse_spec(str(out_file))
    assert serialize(category_to_dict(spec.category)) == out_file.read_text()


def test_cli_gamma_has_no_lift_trials_option(tmp_path, capsys):
    # the build proves lift independence; the sampler is a test oracle
    code, _, err = run(capsys, "gamma", "build", TOY, "-o", str(tmp_path / "g.json"),
                       "--lift-trials", "1")
    assert code == 2 and "--lift-trials" in err
    assert not (tmp_path / "g.json").exists()


def test_cli_validate_toy(capsys):
    code, out, _ = run(capsys, "validate", TOY)
    assert code == 0
    assert json.loads(out)["verdict"] == "PASS"


def test_cli_filtration_check(capsys):
    code, out, _ = run(capsys, "filtration", "check", TOY)
    assert code == 0
    assert json.loads(out)["levels"] == [3, 2, 1, 1, 0]


def test_cli_filtration_degree(tmp_path, capsys):
    out_file = tmp_path / "deg.json"
    code, out, _ = run(capsys, "filtration", "degree", TOY, "-o", str(out_file))
    assert code == 0
    assert json.loads(out)["levels"] == [3, 1, 0]
    spec = parse_spec(str(out_file))
    assert spec.filtration.dims() == (3, 1, 0)


def test_cli_filtration_appendix(tmp_path, capsys):
    out_file = tmp_path / "app.json"
    code, out, _ = run(capsys, "filtration", "appendix", TOY, "--kappa", "1", "-o", str(out_file))
    assert code == 0
    data = json.loads(out)
    assert data["levels"] == [3, 2, 1, 1, 0]
    assert data["nil_index"] == 2 and data["N"] == 3
    # kappa can also come from the file
    code2, out2, _ = run(capsys, "filtration", "appendix", TOY, "-o", str(out_file))
    assert code2 == 0


def _trivial_extension_levels(a, kappa):
    """Appendix levels of k[x]/x^a ⋉ (k[x]/x^a)[kappa]: J = (x), R_{-kappa} =
    span(y_0, ..., y_{a-1}) and J^u R_{-kappa} J^v = span(y_{u+v}, ...), so
    2a, then a + max(a - p, 0) for p = 1..N, then a - q for q = 1..a."""
    big_n = max((kappa + 2) * (a - 1), 1)
    return [2 * a] + [a + max(a - p, 0) for p in range(1, big_n + 1)] + [a - q for q in range(1, a + 1)]


@pytest.mark.parametrize("alg, kappa, levels", [
    (truncated_polynomial(4), 1000, [4, 3, 2, 1, 0]),
    (trivial_extension(1, 1), 1, _trivial_extension_levels(1, 1)),
    (trivial_extension(4, 3), 3, _trivial_extension_levels(4, 3)),
    (trivial_extension(5, 2), 2, _trivial_extension_levels(5, 2)),
], ids=["x4-kappa-1000", "trivext-1-1", "trivext-4-3", "trivext-5-2"])
def test_cli_filtration_appendix_closed_forms(alg, kappa, levels, tmp_path, capsys):
    # k[x]/x^4 has no degree -1000 part: N = 3006, but the levels stop at
    # J^4 = 0, the first zero level
    src, out_file = tmp_path / "in.json", tmp_path / "out.json"
    src.write_text(serialize(category_to_dict(alg)))
    code, out, _ = run(capsys, "filtration", "appendix", str(src), "--kappa", str(kappa), "-o", str(out_file))
    assert code == 0 and json.loads(out)["levels"] == levels
    assert parse_spec(str(out_file)).filtration.dims() == tuple(levels)


@pytest.mark.parametrize("p, name, nilpotent", [
    (3, "x4", True), (3, "x5", True), (3, "P2", True), (3, "x3", False), (3, "x6", False), (3, "P3", False),
    (5, "x3", True), (5, "x4", True), (5, "x6", True), (5, "x5", False), (5, "P2", False), (5, "P3", False),
])
def test_cli_filtration_appendix_over_prime_field(p, name, nilpotent, tmp_path, capsys):
    """Over F_p the trace kernel J is the radical whenever it is nilpotent,
    and the appendix levels are then the closed form: (m, m-1, ..., 0) for
    k[x]/x^m, sum_{k >= q} (d+1-k) C(d+k, d) at level q for Beilinson P^d.
    Otherwise J holds an idempotent and the command refuses: tr(L_1) = m on
    k[x]/x^m, and the idempotents of P^d have traces C(d+1+k, d+1), k = 0..d.
    The input is valid, so the refusal is a FAIL verdict (exit 1) whose one
    failed check, ``radical``, carries a nonzero vector of J^(dim R + 1)."""
    d = int(name[1:])
    field = GF(p)
    if name[0] == "x":
        alg, levels = truncated_polynomial(d, field), list(range(d, -1, -1))
    else:
        alg = beilinson_algebra(d, field)
        levels = [sum((d + 1 - k) * comb(d + k, d) for k in range(q, d + 1)) for q in range(d + 2)]
    src, out_file = tmp_path / "in.json", tmp_path / "out.json"
    src.write_text(serialize(category_to_dict(alg)))
    code, out, err = run(capsys, "filtration", "appendix", str(src), "--kappa", "1", "-o", str(out_file))
    if nilpotent:
        assert code == 0 and json.loads(out)["levels"] == levels
        assert parse_spec(str(out_file)).filtration.dims() == tuple(levels)
    else:
        report = json.loads(out)
        assert (code, err, report["verdict"]) == (1, "", "FAIL")
        (check,) = report["report"]["checks"]
        assert (check["name"], check["passed"], check["detail"]) == ("radical", False, "trace kernel is not nilpotent")
        (witness,) = check["witnesses"]
        dim = sum(1 for _ in alg.all_labels())
        assert witness["reason"] == f"J^{dim + 1} != 0" and witness["vector"]
        assert not out_file.exists()


def test_cli_deform_cocycle(tmp_path, capsys):
    alg = {
        "field": {"kind": "rationals"},
        "objects": ["*"],
        "basis": [
            {"name": "1", "source": "*", "target": "*", "degree": 0},
            {"name": "e", "source": "*", "target": "*", "degree": 0},
        ],
        "units": {"*": "1"},
        "mult": [
            {"arity": 2, "inputs": ["1", "1"], "output": {"1": "1"}},
            {"arity": 2, "inputs": ["1", "e"], "output": {"e": "1"}},
            {"arity": 2, "inputs": ["e", "1"], "output": {"e": "1"}},
        ],
    }
    alg_file = tmp_path / "alg.json"
    alg_file.write_text(json.dumps(alg))
    cochain = {"arity": 2, "table": [{"inputs": ["e", "e"], "output": {"1": "1"}}]}
    co_file = tmp_path / "eta.json"
    co_file.write_text(json.dumps(cochain))
    out_file = tmp_path / "deformed.json"
    code, out, _ = run(capsys, "deform", str(alg_file), "--cochain", str(co_file), "-o", str(out_file))
    assert code == 0
    data = json.loads(out)
    assert data["cocycle"] is True and data["verdict"] == "PASS"
    code2, _, _ = run(capsys, "validate", str(out_file))
    assert code2 == 0


def test_cli_deform_noncocycle_fails(tmp_path, capsys):
    alg = json.loads((Path(__file__).parent.parent / "fixtures" / "toy.json").read_text())
    del alg["filtration"]
    del alg["kappa"]
    alg_file = tmp_path / "alg.json"
    alg_file.write_text(json.dumps(alg))
    # eta(e, e) = e is not a cocycle over the three-dimensional algebra:
    # (d eta)(e,e,e) = e*eta(e,e) - eta(0,e) + eta(e,0) - eta(e,e)*e
    #                = M.(e*e) - M.(e*e) = 0 ... use eta(e,t) = 1 instead,
    # which breaks the degree bookkeeping; take eta(e,e) = t (internal -1)
    cochain = {"arity": 2, "table": [{"inputs": ["e", "e"], "output": {"t": "1"}}]}
    co_file = tmp_path / "eta.json"
    co_file.write_text(json.dumps(cochain))
    out_file = tmp_path / "deformed.json"
    code, out, err = run(capsys, "deform", str(alg_file), "--cochain", str(co_file), "-o", str(out_file))
    # internal degree -1 does not match the shift: usage error
    assert code == 2


def test_cli_deform_noncocycle_exit1(tmp_path, capsys):
    # a genuinely non-closed normalized cochain on k[x]/(x^3)
    alg = {
        "field": {"kind": "rationals"},
        "objects": ["*"],
        "basis": [
            {"name": "1", "source": "*", "target": "*", "degree": 0},
            {"name": "x", "source": "*", "target": "*", "degree": 0},
            {"name": "y", "source": "*", "target": "*", "degree": 0},
        ],
        "units": {"*": "1"},
        "mult": [
            {"arity": 2, "inputs": ["1", "1"], "output": {"1": "1"}},
            {"arity": 2, "inputs": ["1", "x"], "output": {"x": "1"}},
            {"arity": 2, "inputs": ["x", "1"], "output": {"x": "1"}},
            {"arity": 2, "inputs": ["1", "y"], "output": {"y": "1"}},
            {"arity": 2, "inputs": ["y", "1"], "output": {"y": "1"}},
            {"arity": 2, "inputs": ["x", "x"], "output": {"y": "1"}},
        ],
    }
    alg_file = tmp_path / "alg.json"
    alg_file.write_text(json.dumps(alg))
    cochain = {"arity": 2, "table": [{"inputs": ["x", "y"], "output": {"1": "1"}}]}
    co_file = tmp_path / "eta.json"
    co_file.write_text(json.dumps(cochain))
    out_file = tmp_path / "deformed.json"
    code, out, _ = run(capsys, "deform", str(alg_file), "--cochain", str(co_file), "-o", str(out_file))
    assert code == 1
    data = json.loads(out)
    assert data["cocycle"] is False and data["verdict"] == "FAIL"


def test_cli_deform_reads_cochain_file_once(tmp_path, capsys, monkeypatch):
    # a spec file's cochain section gives the same deformation as the bare
    # cochain, from one read of the file; (e, e) -> e is a cocycle of k[e]/e^2
    cochain = {"arity": 2, "table": [{"inputs": ["e", "e"], "output": {"e": "1"}}]}
    bare = tmp_path / "eta.json"
    bare.write_text(json.dumps(cochain))
    spec = json.loads((FIXTURES / "dual.json").read_text())
    spec["cochain"] = cochain
    in_spec = tmp_path / "eta_spec.json"
    in_spec.write_text(json.dumps(spec))
    out_file = tmp_path / "deformed.json"

    code, out, _ = run(capsys, "deform", DUAL, "--cochain", str(bare), "-o", str(out_file))
    assert code == 0
    expected = (mask_timings(out), out_file.read_bytes())

    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    code, out, _ = run(capsys, "deform", DUAL, "--cochain", str(in_spec), "-o", str(out_file))
    monkeypatch.undo()
    assert code == 0
    assert opened.count(str(in_spec)) == 1
    assert (mask_timings(out), out_file.read_bytes()) == expected


def test_cli_deform_parses_only_the_cochain_section(tmp_path, capsys, monkeypatch):
    # the spec file named by --cochain gives its cochain section only: the
    # base, the square-zero extension and the deformation make 3
    # constructions, and the report stays the same
    dual = str(FIXTURES / "dual.json")
    out_file = tmp_path / "deformed.json"
    constructed = []
    init = AInfCategory.__init__

    def counting(self, *args, **kwargs):
        constructed.append(1)
        init(self, *args, **kwargs)

    code, out, _ = run(capsys, "deform", dual, "--cochain", dual, "-o", str(out_file))
    expected = (code, mask_timings(out), out_file.read_bytes())
    monkeypatch.setattr(AInfCategory, "__init__", counting)
    code, out, _ = run(capsys, "deform", dual, "--cochain", dual, "-o", str(out_file))
    monkeypatch.undo()
    assert len(constructed) == 3
    assert (code, mask_timings(out), out_file.read_bytes()) == expected


def test_cli_deform_refuses_cochain_over_another_field(tmp_path, capsys):
    spec = json.loads((FIXTURES / "dual.json").read_text())
    spec["field"] = {"kind": "prime-field", "characteristic": 3}
    spec["cochain"]["table"][0]["output"] = {"1": 1}
    other = tmp_path / "gf3.json"
    other.write_text(json.dumps(spec))
    out_file = tmp_path / "deformed.json"
    code, out, err = run(capsys, "deform", str(FIXTURES / "dual.json"), "--cochain", str(other),
                         "-o", str(out_file))
    assert code == 2 and out == ""
    assert err.strip() == f"error: {other}: spec file field differs from the field of the input"
    assert not out_file.exists()


DEFORM_GOLDEN = Path(__file__).parent / "deform_golden.json"


@functools.cache
def deform_golden_cases() -> dict:
    """Case name -> spec dict with a ``cochain`` section, associative bases
    only: the dual numbers with eta(e, e) = 1; criterion-7 draws (seed 707,
    a random arity-2 or -3 cochain, every third a coboundary d(phi) of an
    arity-1 or -2 phi), three over Q and three over GF(3); and one draw in a
    basis rescaled with denominators 7, 11 and 13."""

    def spec(cat, eta):
        table = {key: {lab[2:]: v for lab, v in vec.items()} for key, vec in eta.table.items()}
        return category_to_dict(cat, cochain={"arity": eta.arity, "table": table})

    dual = dual_numbers()
    eps = {"arity": 2, "table": {("e", "e"): {"1": Fraction(1)}}}
    cases = {"dual-eps": category_to_dict(dual, cochain=eps)}
    for name, field in (("Q", QQ), ("GF3", GF(3))):
        rng = random.Random(707)
        drawn = 0
        while drawn < 3:
            cat = random_associative_algebra(rng, field)
            module = diagonal_bimodule(cat)
            if drawn == 2:
                phi = random_cochain(rng, cat, module, rng.choice([1, 2]))
                eta = phi and hochschild_differential(phi)
            else:
                eta = random_cochain(rng, cat, module, rng.choice([2, 3]))
            if eta and not eta.is_zero():
                cases[f"{name}-{drawn}"] = spec(cat, eta)
                drawn += 1
    rng = random.Random(707)
    eta = None
    while eta is None:
        cat = rescaled(random_associative_algebra(rng), rng, LARGE_DENOMINATORS)
        eta = random_cochain(rng, cat, diagonal_bimodule(cat), 2, LARGE_DENOMINATORS)
    cases["Q-large-denominators"] = spec(cat, eta)
    return cases


def deform_golden_entry(spec: dict) -> dict:
    """``deform`` of ``spec`` by its own cochain section, run in the current
    directory: the report without ``timings`` (key order kept) and the
    sha256 of the written file."""
    Path("case.json").write_text(serialize(spec), encoding="utf-8")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        main(["deform", "case.json", "--cochain", "case.json", "-o", "deformed.json"])
    report = json.loads(printed.getvalue())
    del report["timings"]
    return {"report": report, "sha256": hashlib.sha256(Path("deformed.json").read_bytes()).hexdigest()}


@pytest.mark.parametrize("case", ["dual-eps", "Q-0", "Q-1", "Q-2", "GF3-0", "GF3-1", "GF3-2", "Q-large-denominators"])
def test_cli_deform_matches_golden(case, tmp_path, monkeypatch):
    """The ``deform`` report and written file equal those recorded in
    ``deform_golden.json`` by the commit before cochains were validated
    only where they enter."""
    monkeypatch.chdir(tmp_path)
    golden = json.loads(DEFORM_GOLDEN.read_text(encoding="utf-8"))
    assert set(golden) == set(deform_golden_cases())
    got = deform_golden_entry(deform_golden_cases()[case])
    assert json.dumps(got, indent=2) == json.dumps(golden[case], indent=2)


def test_cli_deform_spec_without_cochain_exit2(tmp_path, capsys):
    out_file = tmp_path / "deformed.json"
    code, out, err = run(capsys, "deform", TOY, "--cochain", TOY, "-o", str(out_file))
    assert code == 2
    assert out == ""
    assert err.strip() == f"error: {TOY}: spec file has no cochain section"
    assert not out_file.exists()


def test_cli_parse_error_exit2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "error:" in err


def test_cli_missing_file_exit2(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/path.json")
    assert code == 2


def test_cli_usage_error_exit2(capsys):
    code = main(["frobnicate"])
    capsys.readouterr()
    assert code == 2


TIMING_VALUE = re.compile(r'("(?:total_s|build_s|cohomology_s|relations_s)": |(?:build_s|cohomology_s|total_s) )[0-9.e-]+')


def mask_timings(text: str) -> str:
    return TIMING_VALUE.sub(r"\1T", text)


REUSE_SEQUENCE = (
    ["frobnicate"],
    ["--help"],
    ["validate", TOY],
    ["stasheff", "--max-arity", "3", TOY],
    ["stasheff", TOY],
    ["sod", TOY, "--format", "text"],
    ["sod", TOY],
)


def test_cli_parser_built_once_and_reused(capsys, monkeypatch):
    def outputs(fresh: bool) -> list:
        got = []
        for argv in REUSE_SEQUENCE:
            if fresh:
                monkeypatch.setattr(cli, "_PARSER", None)
            code = main(list(argv))
            out = capsys.readouterr()
            got.append((code, mask_timings(out.out), out.err))
        return got

    fresh = outputs(fresh=True)
    builds = []
    real_build = cli.build_parser
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real_build())
    reused = outputs(fresh=False)
    assert builds == [1]
    assert reused == fresh
    assert [code for code, _, _ in reused] == [2, 0, 0, 0, 0, 0, 0]
    assert reused[0][2].startswith("usage: ainfbench") and reused[1][1].startswith("usage: ainfbench")
    # neither --max-arity 3 nor --format text leaks into the next call
    assert "stasheff_n3" in reused[3][1] and "stasheff_n4" not in reused[3][1]
    assert "stasheff_n5" in reused[4][1]
    assert reused[5][1].startswith("semiorthogonality report") and reused[6][1].startswith("{")

    # a handler rebound after the parser was built is the one that runs
    calls = []
    monkeypatch.setattr(cli, "cmd_validate", lambda args, spec, started: calls.append(args.file) or 0)
    assert main(["validate", TOY]) == 0
    assert calls == [TOY] and builds == [1]


def test_cli_report_register():
    # every exit code, report (timings masked) and written file of the
    # matrix in tests/register.py, as recorded in tests/report_register.json
    assert register.differences(register.run(slow=False)) == []


def test_cli_invalid_input_gets_no_certificate(tmp_path, capsys):
    # toy plus m_2(e, t) = t breaks the n = 3 relation; validate rejects it,
    # and no command may certify a filtration or a decomposition built on it
    data = json.loads(Path(TOY).read_text())
    data["mult"].append({"arity": 2, "inputs": ["e", "t"], "output": {"t": "1"}})
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert run(capsys, "validate", str(bad))[0] == 1

    deg = tmp_path / "deg.json"
    for argv in (
        ("filtration", "check", str(bad)),
        ("filtration", "degree", str(bad), "-o", str(deg)),
        ("filtration", "appendix", str(bad), "--kappa", "1", "-o", str(deg)),
        ("sod", str(bad)),
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 1, argv
        report = json.loads(out)
        assert report["verdict"] == "FAIL"
        assert report["structure"]["passed"] is True
        n3 = next(c for c in report["relations"]["checks"] if c["name"] == "stasheff_n3")
        assert not n3["passed"] and n3["witnesses"]
    assert not deg.exists()

    # the reproducer: its degree filtration, as `filtration degree` used to
    # write it, passes the filtration check, and `sod` used to certify it
    cat = parse_spec(str(bad)).category
    filtered = tmp_path / "filtered.json"
    filtered.write_text(serialize(category_to_dict(cat, filtration=degree_filtration(cat))))
    code, out, _ = run(capsys, "sod", str(filtered), "--format", "text")
    assert code == 1
    assert json.loads(out)["verdict"] == "FAIL"


def _degree_breaking_spec(tmp_path) -> str:
    """Toy's basis and unit products with m_2(e, e) = t, which breaks the
    degree rule (|e| = 0, |t| = -1), and a filtration that passes its check."""
    data = json.loads(Path(TOY).read_text())
    data["mult"] = [row for row in data["mult"] if row["arity"] == 2]
    data["mult"].append({"arity": 2, "inputs": ["e", "e"], "output": {"t": "1"}})
    data["filtration"] = [[{"1": "1"}, {"e": "1"}, {"t": "1"}], [{"t": "1"}], []]
    path = tmp_path / "bad_degrees.json"
    path.write_text(json.dumps(data))
    return str(path)


def _assert_degrees_fail(out: str) -> None:
    report = json.loads(out)
    assert report["verdict"] == "FAIL"
    failed = [c for c in report["structure"]["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["degrees"]
    assert {"arity": 2, "tuple": ["e", "e"]}.items() <= failed[0]["witnesses"][0].items()


@pytest.mark.parametrize(
    "inputs,output",
    [(["e"], "e"), (["e", "e"], "e"), (["e", "t"], "t")],
    ids=["eta_e", "eta_ee", "eta_et"],
)
def test_cli_deform_refuses_invalid_base(tmp_path, capsys, inputs, output):
    # without the input gate the broken degree rule surfaces late: in the
    # degree check of d(eta) for eta_e and eta_et (exit 2), and only in the
    # written deformation's report for eta_ee (exit 1, with a file)
    bad = _degree_breaking_spec(tmp_path)
    cochain = tmp_path / "eta.json"
    cochain.write_text(json.dumps({"arity": len(inputs), "table": [{"inputs": inputs, "output": {output: "1"}}]}))
    out_file = tmp_path / "deformed.json"
    code, out, err = run(capsys, "deform", bad, "--cochain", str(cochain), "-o", str(out_file))
    assert (code, err) == (1, "")
    _assert_degrees_fail(out)
    assert not out_file.exists()


def test_cli_gamma_build_refuses_invalid_base(tmp_path, capsys):
    bad = _degree_breaking_spec(tmp_path)
    spec = parse_spec(bad)
    assert check_filtration(spec.category, spec.filtration).passed
    out_file = tmp_path / "gamma.json"
    code, out, _ = run(capsys, "gamma", "build", bad, "-o", str(out_file))
    assert code == 1
    _assert_degrees_fail(out)
    assert not out_file.exists()


@pytest.mark.parametrize("command", [("gamma", "build"), ("sod",)], ids=["gamma-build", "sod"])
def test_cli_refuses_incompatible_filtration(tmp_path, capsys, command):
    # both commands emit the filtration check's report, in one key order,
    # and build nothing
    alg, filt = incompatible_filtration()
    spec = tmp_path / "x4.json"
    spec.write_text(serialize(category_to_dict(alg, filtration=filt)))
    out_file = tmp_path / "gamma.json"
    argv = (*command, str(spec)) + (("-o", str(out_file)) if command[0] == "gamma" else ())
    code, out, _ = run(capsys, *argv)
    report = json.loads(out)
    assert code == 1 and list(report) == ["command", "verdict", "report", "timings"]
    assert report["command"] == " ".join(command) and report["verdict"] == "FAIL"
    assert report["report"] == json.loads(json.dumps(check_filtration(alg, filt).to_json()))
    assert not report["report"]["passed"] and not out_file.exists()


def test_cli_stage_timings(tmp_path, capsys):
    code, out, _ = run(capsys, "sod", TOY)
    assert code == 0
    assert set(json.loads(out)["timings"]) == {"total_s", "build_s", "cohomology_s"}
    code, out, _ = run(capsys, "gamma", "build", TOY, "-o", str(tmp_path / "g.json"))
    assert code == 0
    assert set(json.loads(out)["timings"]) == {"total_s", "build_s"}
    code, out, _ = run(capsys, "sod", TOY, "--format", "text")
    assert code == 0
    assert out.splitlines()[-1].startswith("timings: build_s ")
    assert ", cohomology_s " in out.splitlines()[-1]
    assert "total_s" in out.splitlines()[-1]


def test_cli_relations_timing(tmp_path, capsys):
    # every command that runs the relation sweep times it inside ``timings``;
    # ``gamma build`` certifies the quotient category's relations by the
    # quotient argument, with no sweep and so no ``relations_s``
    cochain = tmp_path / "eta.json"
    cochain.write_text(json.dumps({"arity": 2, "table": [{"inputs": ["e", "e"], "output": {"e": "1"}}]}))
    commands = [
        ("validate", TOY),
        ("stasheff", NONASSOC),
        ("deform", DUAL, "--cochain", str(cochain), "-o", str(tmp_path / "d.json")),
    ]
    for argv in commands:
        code, out, _ = run(capsys, *argv)
        assert code in (0, 1), argv
        timings = json.loads(out)["timings"]
        assert 0 <= timings["relations_s"] <= timings["total_s"], argv
    code, out, _ = run(capsys, "gamma", "build", TOY, "-o", str(tmp_path / "g.json"))
    report = json.loads(out)
    assert code == 0 and report["relations_method"] == "quotient"
    assert "relations" not in report and "relations_s" not in report["timings"]


def _dual_spec_with(tmp_path, edit) -> str:
    """fixtures/dual.json after ``edit`` (in place, on the parsed JSON), written to a file."""
    spec = json.loads(Path(DUAL).read_text())
    edit(spec)
    path = tmp_path / "case.json"
    path.write_text(json.dumps(spec))
    return str(path)


MALFORMED = {
    "cochain-output-list": lambda s: s["cochain"]["table"][0].update(output=["1"]),
    "units-value-list": lambda s: s["units"].update({"*": ["1"]}),
    "mult-inputs-list": lambda s: s["mult"][1]["inputs"].__setitem__(1, ["e"]),
    "cochain-inputs-list": lambda s: s["cochain"]["table"][0]["inputs"].__setitem__(0, ["e"]),
    # the last duplicate used to win: dual.json deformed by 5 M.e alone, PASS
    "cochain-duplicate": lambda s: s["cochain"]["table"].append({"inputs": ["e", "e"], "output": {"e": "5"}}),
    # JSON true used to be read as the integer 1
    "kappa-true": lambda s: s.update(kappa=True),
    "degree-true": lambda s: s["basis"][1].update(degree=True),
    "mult-arity-true": lambda s: s["mult"].append({"arity": True, "inputs": ["e"], "output": {}}),
    "cochain-arity-true": lambda s: s.update(cochain={"arity": True, "table": [{"inputs": ["e"], "output": {"e": "1"}}]}),
    # false and 0.0 equal 0 in Python: both used to pass for the rationals
    "rationals-characteristic-false": lambda s: s["field"].update(characteristic=False),
    "rationals-characteristic-float": lambda s: s["field"].update(characteristic=0.0),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_cli_malformed_spec_is_a_usage_error(case, tmp_path, capsys):
    # exit 2 with an error line, not a traceback (which also exits 1) or a
    # report on a misread input
    path = _dual_spec_with(tmp_path, MALFORMED[case])
    code, out, err = run(capsys, "validate", path)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("n", ["0", "-3"])
def test_cli_stasheff_max_arity_below_one_is_a_usage_error(n, capsys):
    # a sweep up to arity 0 checks nothing, and used to print PASS
    code, out, err = run(capsys, "stasheff", NONASSOC, "--max-arity", n)
    assert (code, out) == (2, "")
    assert "--max-arity" in err


def test_cli_deform_refuses_a_base_with_higher_products(tmp_path, capsys):
    # toy has m_3(e, e, e) = t, and the differential inserts only m_2: no
    # cocycle verdict is given and no file is written
    cochain = tmp_path / "eta.json"
    cochain.write_text(json.dumps({"arity": 2, "table": [{"inputs": ["e", "e"], "output": {"e": "1"}}]}))
    out_file = tmp_path / "deformed.json"
    code, out, err = run(capsys, "deform", TOY, "--cochain", str(cochain), "-o", str(out_file))
    report = json.loads(out)
    assert (code, err) == (1, "") and not out_file.exists()
    assert list(report) == ["command", "verdict", "report", "timings"] and report["verdict"] == "FAIL"
    [check] = report["report"]["checks"]
    assert check["name"] == "higher_products" and not check["passed"] and "m_3" in check["detail"]
    assert check["witnesses"] == [{"arity": 3, "tuple": ["e", "e", "e"]}]


def test_cli_deform_refusal_builds_no_deformation(tmp_path, capsys, monkeypatch):
    # the cochain's gates run first, then the higher-products refusal, and
    # only then the build: toy's refusal makes the parsed base alone (it
    # used to build a deformation nothing read), and a cochain of internal
    # degree -1 on toy is still a usage error, exit 2
    cochain = tmp_path / "eta.json"
    cochain.write_text(json.dumps({"arity": 2, "table": [{"inputs": ["e", "e"], "output": {"e": "1"}}]}))
    out_file = tmp_path / "deformed.json"
    constructed = []
    init = AInfCategory.__init__
    monkeypatch.setattr(AInfCategory, "__init__", lambda self, *a: constructed.append(1) or init(self, *a))
    code, out, _ = run(capsys, "deform", TOY, "--cochain", str(cochain), "-o", str(out_file))
    monkeypatch.undo()
    assert code == 1 and json.loads(out)["report"]["checks"][0]["name"] == "higher_products"
    assert len(constructed) == 1
    cochain.write_text(json.dumps({"arity": 1, "table": [{"inputs": ["e"], "output": {"t": "1"}}]}))
    code, out, err = run(capsys, "deform", TOY, "--cochain", str(cochain), "-o", str(out_file))
    assert (code, out) == (2, "") and "internal degree -1" in err
    assert not out_file.exists()


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_cli_deform_by_an_empty_cochain(arity, tmp_path, capsys):
    # the deformation by zero is the extension: no empty m_n table is added,
    # so the sweep's bound stays 2 * 2 - 1 = 3 on dual.json, whose 3 products
    # and 6 actions are all the file holds
    cochain = tmp_path / "eta.json"
    cochain.write_text(json.dumps({"arity": arity, "table": []}))
    out_file = tmp_path / "deformed.json"
    code, out, err = run(capsys, "deform", DUAL, "--cochain", str(cochain), "-o", str(out_file))
    report = json.loads(out)
    assert (code, err, report["verdict"], report["cocycle"]) == (0, "", "PASS", True)
    assert [c["name"] for c in report["relations"]["checks"]] == ["stasheff_n1", "stasheff_n2", "stasheff_n3"]
    assert [entry["arity"] for entry in json.loads(out_file.read_text())["mult"]] == [2] * 9


def test_cli_deform_refuses_a_dg_base(tmp_path, capsys):
    # m_1(a) = b, and the differential inserts only m_2: eta(b, b) = b used to
    # get a FAIL verdict next to "cocycle": true, and a written file
    alg, filt = dg_closure_example()
    spec = tmp_path / "dg.json"
    spec.write_text(serialize(category_to_dict(alg, filtration=filt)))
    cochain = tmp_path / "eta.json"
    cochain.write_text(json.dumps({"arity": 2, "table": [{"inputs": ["b", "b"], "output": {"b": "1"}}]}))
    out_file = tmp_path / "deformed.json"
    code, out, err = run(capsys, "deform", str(spec), "--cochain", str(cochain), "-o", str(out_file))
    report = json.loads(out)
    assert (code, err) == (1, "") and not out_file.exists()
    assert list(report) == ["command", "verdict", "report", "timings"] and report["verdict"] == "FAIL"
    [check] = report["report"]["checks"]
    assert check["name"] == "higher_products" and not check["passed"] and "m_1" in check["detail"]
    assert check["witnesses"] == [{"arity": 1, "tuple": ["a"]}]


def _value_paths(value, path=()):
    """The path of ``value`` and of every object value and list element in it."""
    yield path
    if isinstance(value, (dict, list)):
        for k, v in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from _value_paths(v, path + (k,))


def _replaced(value, path, new):
    if not path:
        return new
    copy = json.loads(json.dumps(value))
    node = copy
    for k in path[:-1]:
        node = node[k]
    node[path[-1]] = new
    return copy


@pytest.mark.parametrize("name", ["toy.json", "dual.json"])
def test_cli_exit_codes_survive_any_replaced_value(name, tmp_path, capsys):
    # every value and list element in turn replaced by each JSON kind: the
    # CLI exits 0, 1 or 2 and no exception escapes it
    spec = json.loads((FIXTURES / name).read_text())
    case = tmp_path / "case.json"
    for path in _value_paths(spec):
        for junk in ([], {}, True, None, 1.5, "?"):
            case.write_text(json.dumps(_replaced(spec, path, junk)))
            argvs = [["validate", str(case)]]
            if name == "dual.json" and path[:1] == ("cochain",):
                argvs.append(["deform", DUAL, "--cochain", str(case), "-o", str(tmp_path / "out.json")])
            for argv in argvs:
                try:
                    code = main(argv)
                except Exception as exc:  # any escape fails, naming its case
                    pytest.fail(f"{argv[0]} with {path} -> {junk!r} raised {exc!r}")
                capsys.readouterr()
                assert code in (0, 1, 2), (argv[0], path, junk)


def test_package_root_exports_only_the_fields():
    # every other name is imported from the module that defines it
    import ainfbench

    assert ainfbench.__all__ == ["GF", "QQ"]
