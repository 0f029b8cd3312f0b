"""Acceptance criteria, one test per criterion, each printing a verdict line.

Every expected value here is exact (no floating point anywhere); runtime
budgets are part of the criteria and are asserted."""

import itertools
import json
import random
import time
from pathlib import Path

from ainfbench import QQ
from ainfbench.ainf import check_stasheff, validate_structure
from ainfbench.auslander import build_auslander
from ainfbench.cli import main as cli_main
from ainfbench.filtration import (
    _radical_powers,
    appendix_filtration,
    check_filtration,
    degree_filtration,
    quotient_by_ideal,
)
from ainfbench.hochschild import (
    HochschildCochain,
    HochschildError,
    coboundary_trivialization,
    deform_by_cocycle,
    diagonal_bimodule,
    hochschild_differential,
)
from ainfbench.perfmod import hom_complex, representable, sod_report
from ainfbench.specfile import category_to_dict, parse_spec, serialize

from .corpus import (
    ASSOCIATIVE_CORPUS,
    nonassociative_example,
    random_associative_algebra,
    random_filtered_algebra,
    toy_algebra,
)
from .oracles import check_index_inequalities_exhaustive, lift_independence_sampled, naive_evaluation_dims
from .test_perfmod import random_twisted_complex

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def verdict(number, ok, detail):
    print(f"acceptance criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_stasheff_soundness():
    slowest = 0.0
    for name, make in ASSOCIATIVE_CORPUS:
        start = time.perf_counter()
        cat = make()
        assert validate_structure(cat).passed, name
        assert check_stasheff(cat).passed, name
        slowest = max(slowest, time.perf_counter() - start)
        assert slowest < 1.0, f"{name} exceeded 1 s"
    start = time.perf_counter()
    bad = nonassociative_example()
    report = check_stasheff(bad, n_max=3)
    elapsed = time.perf_counter() - start
    n3 = report.check("stasheff_n3")
    witnessed = not n3.passed and ["x", "x", "x"] in [w["tuple"] for w in n3.witnesses]
    verdict(
        1,
        witnessed and elapsed < 1.0,
        f"{len(ASSOCIATIVE_CORPUS)} associative algebras pass, counterexample "
        f"witnessed at (x,x,x); slowest {slowest:.3f} s",
    )


def test_criterion_2_toy_pipeline():
    toy = toy_algebra()
    filt, params = appendix_filtration(toy, kappa=1)
    dims_ok = filt.dims() == (3, 2, 1, 1, 0) and filt.n == 4
    compat = check_filtration(toy, filt).passed
    rbar, _ = quotient_by_ideal(toy, filt.levels[1])
    rbar_ok = rbar.total_dim() == 1 and _radical_powers(rbar)[1].dim == 0
    verdict(
        2,
        dims_ok and compat and rbar_ok,
        f"levels {filt.dims()}, compatibility {compat}, dim R/F^1 = "
        f"{rbar.total_dim()} with zero radical",
    )


def test_criterion_3_auslander_construction():
    start = time.perf_counter()
    toy = toy_algebra()
    filt, _ = appendix_filtration(toy, kappa=1)
    aus = build_auslander(toy, filt)
    dims_ok = aus.hom_dims() == ((3, 2, 1, 1), (2, 2, 1, 0), (2, 2, 2, 1), (1, 1, 1, 1))
    relations = check_stasheff(aus.gamma)  # bound 2*3 - 1 = 5
    lifts = lift_independence_sampled(aus, trials=50, rng=random.Random(2024))
    elapsed = time.perf_counter() - start
    verdict(
        3,
        dims_ok and relations.passed and lifts and elapsed < 10.0,
        f"hom dims match, relations pass to arity 5, 50 lift perturbations "
        f"stable, {elapsed:.2f} s < 10 s",
    )


def test_criterion_4_semiorthogonality():
    start = time.perf_counter()
    toy = toy_algebra()

    filt_a, _ = appendix_filtration(toy, kappa=1)
    rep_a = sod_report(build_auslander(toy, filt_a))
    ok_a = rep_a.passed and rep_a.n == 4

    filt_b = degree_filtration(toy)
    rep_b = sod_report(build_auslander(toy, filt_b))
    ok_b = rep_b.passed and rep_b.n == 2 and rep_b.rbar_dims == {0: 2}

    rng = random.Random(4242)
    randomized = 0
    ok_c = True
    while randomized < 25:
        alg, filt = random_filtered_algebra(rng)
        rep = sod_report(build_auslander(alg, filt))
        ok_c = ok_c and rep.passed
        randomized += 1
    elapsed = time.perf_counter() - start
    verdict(
        4,
        ok_a and ok_b and ok_c and elapsed < 120.0,
        f"appendix n=4 PASS, degree n=2 PASS, {randomized} randomized filtered "
        f"algebras PASS, {elapsed:.1f} s < 120 s",
    )


def test_criterion_5_integer_inequality():
    check_index_inequalities_exhaustive(n_max=2, p_max=1)  # pay the import once
    start = time.perf_counter()
    ok = check_index_inequalities_exhaustive(n_max=8, p_max=6)
    elapsed = time.perf_counter() - start
    verdict(5, ok and elapsed < 1.0, f"exhaustive for p <= 6, n <= 8 in {elapsed:.2f} s")


def test_criterion_6_yoneda():
    rng = random.Random(606)
    toy = toy_algebra()
    gammas = [
        build_auslander(toy, appendix_filtration(toy, kappa=1)[0]),
        build_auslander(toy, degree_filtration(toy)),
    ]
    checked = 0
    while checked < 100:
        aus = rng.choice(gammas)
        y = random_twisted_complex(aus, rng, depth=rng.randint(0, 2))
        j = rng.randrange(aus.n)
        lhs = hom_complex(representable(aus, j), y).cohomology_dims()
        rhs = naive_evaluation_dims(y, j)
        assert lhs == rhs, (j, y.entries, lhs, rhs)
        checked += 1
    verdict(6, checked == 100, f"{checked} randomized module/object pairs agree exactly")


def _random_cochain(rng, cat, module, arity):
    labels = [l for l in cat.all_labels() if not cat.is_unit(l)]
    if not labels:
        return None
    table = {}
    for key in itertools.product(labels, repeat=arity):
        out = {}
        for lab in list(cat.all_labels()):
            v = rng.randint(-1, 1)
            if v:
                out[f"M.{lab}"] = QQ.of_int(v)
        if out and rng.random() < 0.4:
            table[key] = out
    try:
        eta = HochschildCochain(cat, module, arity, table)
    except HochschildError:
        return None
    if eta.internal_degree != 0 or eta.is_zero():
        return None
    return eta


def test_criterion_7_deformation():
    rng = random.Random(707)
    tested = 0
    cocycles_seen = 0
    while tested < 50:
        cat = random_associative_algebra(rng)
        module = diagonal_bimodule(cat)
        if tested % 3 == 2:
            # guaranteed cocycles: differentials of random lower cochains
            phi = _random_cochain(rng, cat, module, rng.choice([1, 2]))
            if phi is None:
                continue
            d_phi = hochschild_differential(phi)
            if d_phi.is_zero():
                continue
            eta = HochschildCochain(
                cat, module, d_phi.arity, d_phi.table, internal_degree=0
            )
        else:
            eta = _random_cochain(rng, cat, module, rng.choice([2, 3]))
            if eta is None:
                continue
        deformed, _ = deform_by_cocycle(cat, module, eta)
        passes = check_stasheff(deformed).passed
        closed = hochschild_differential(eta).is_zero()
        assert passes == closed
        cocycles_seen += closed
        tested += 1

    coboundaries = 0
    while coboundaries < 10:
        cat = random_associative_algebra(rng)
        module = diagonal_bimodule(cat)
        phi = _random_cochain(rng, cat, module, rng.choice([1, 2]))
        if phi is None:
            continue
        eta = hochschild_differential(phi)
        deformed, _ = deform_by_cocycle(
            cat, module, HochschildCochain(cat, module, eta.arity, eta.table, internal_degree=0)
        )
        assert check_stasheff(deformed).passed
        assert coboundary_trivialization(cat, module, phi)
        coboundaries += 1
    verdict(
        7,
        tested == 50 and coboundaries == 10,
        f"{tested} random cochains satisfy deform-passes iff cocycle "
        f"({cocycles_seen} cocycles among them); {coboundaries} coboundaries "
        f"trivialized by the explicit change of coordinates",
    )


def test_criterion_8_cli_contract(tmp_path, capsys):
    toy_path = str(FIXTURES / "toy.json")
    nonassoc_path = str(FIXTURES / "nonassoc.json")

    code = cli_main(["sod", toy_path, "--format", "json"])
    out = capsys.readouterr().out
    data = json.loads(out)
    sod_ok = code == 0 and data["verdict"] == "PASS" and len(data["hom_P_S_dims"]) == 4

    code2 = cli_main(["stasheff", nonassoc_path])
    out2 = capsys.readouterr().out
    data2 = json.loads(out2)
    n3 = next(c for c in data2["relations"]["checks"] if c["name"] == "stasheff_n3")
    stasheff_ok = code2 == 1 and ["x", "x", "x"] in [w["tuple"] for w in n3["witnesses"]]

    gamma_file = tmp_path / "gamma.json"
    code3 = cli_main(["gamma", "build", toy_path, "-o", str(gamma_file)])
    capsys.readouterr()
    code4 = cli_main(["validate", str(gamma_file)])
    capsys.readouterr()
    spec = parse_spec(str(gamma_file))
    roundtrip_ok = (
        serialize(category_to_dict(spec.category)) == gamma_file.read_text()
    )
    gamma_ok = code3 == 0 and code4 == 0 and roundtrip_ok

    # byte-identical serialization across the corpus
    from .corpus import ASSOCIATIVE_CORPUS

    corpus_ok = True
    for name, make in ASSOCIATIVE_CORPUS:
        cat = make()
        text = serialize(category_to_dict(cat))
        from ainfbench.specfile import parse_spec_dict

        again = serialize(category_to_dict(parse_spec_dict(json.loads(text)).category))
        corpus_ok = corpus_ok and text == again

    verdict(
        8,
        sod_ok and stasheff_ok and gamma_ok and corpus_ok,
        "sod exit 0 with 4x4 tables, stasheff exit 1 with (x,x,x) witness, "
        "gamma round-trip re-validates byte-identically, corpus serialization "
        "is a fixpoint",
    )
