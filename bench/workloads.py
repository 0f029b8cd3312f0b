"""Seeded inputs and known answers for the benchmark workloads.

``relation-sweep`` runs the Γ chain on k[x]/x^m, a trivial extension and
the toy fixture, a known-FAIL ``stasheff``, and the deformation cases of
acceptance criterion 7: the ainf relation sweep dominates it, over one
multi-object category per Γ and over many small one-object categories.  ``sod-appendix`` runs
``sod`` and has no relation sweep at all: the auslander build, linalg
projection and perfmod cohomology dominate it.

Each workload is a fixed list of steps.  A step is one CLI verdict (argv for
``ainfbench.cli.main``) or one library certificate, together with a check
that compares its outcome with an answer the benchmark knows independently of
the code under test: filtration dims and Γ hom dims in closed form, the
semiorthogonality pattern the paper proves, the nonassoc witness, and
"deform passes iff the cochain is a cocycle".

The seed never changes how much work a step does.  It picks a random
diagonal change of basis ``b -> c_b * b`` (units fixed) that is applied to
every generated input, so structure constants, filtration vectors and
cochains differ from seed to seed while the sparsity pattern, the verdicts
and the closed-form dimensions stay the same.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import ainfbench.hochschild as hochschild
from ainfbench import QQ
from ainfbench.hochschild import HochschildCochain, HochschildError, diagonal_bimodule, hochschild_differential
from ainfbench.specfile import category_to_dict, parse_spec_dict
from tests.corpus import random_associative_algebra

# Scale factors for the seeded change of basis: small, so that the size of
# the rationals (and with it the cost of the arithmetic) barely depends on
# the seed.
FACTORS = tuple(Fraction(f) for f in ("2", "3", "1/2", "1/3", "2/3", "3/2", "-1", "-2", "-1/2"))

FIXTURES = Path("fixtures")


@dataclass
class Step:
    """One verdict of a workload.

    ``argv`` runs ``ainfbench.cli.main(argv)``; ``call`` runs a library
    certificate instead.  ``check`` gets (exit code, parsed report) or
    (None, returned value) and returns None when the outcome is the known
    answer, else a one-line reason.
    """

    name: str
    check: Callable
    argv: list | None = None
    call: Callable | None = None


@dataclass
class Workload:
    name: str
    steps: list
    # input of the --jobs 1/2 comparison in the traced run: (argv without
    # --jobs, metric name), or None when this workload measures no pool
    pool: tuple | None = None


# ---------------------------------------------------------------------------
# spec dictionaries in the file format (see README, "Input format")


def _spec(basis, mult, unit="1"):
    return {
        "field": {"kind": "rationals"},
        "objects": ["*"],
        "basis": [{"name": l, "source": "*", "target": "*", "degree": d} for l, d in basis],
        "units": {"*": unit},
        "mult": [{"arity": len(k), "inputs": list(k), "output": v} for k, v in mult],
    }


def truncated_polynomial(m: int) -> dict:
    """k[x]/x^m with basis 1, x1, ..., x(m-1)."""
    labels = ["1"] + [f"x{i}" for i in range(1, m)]
    mult = [
        ((labels[i], labels[j]), {labels[i + j]: "1"})
        for i in range(m) for j in range(m) if i + j < m
    ]
    return _spec([(l, 0) for l in labels], mult)


def trivial_extension(a: int, kappa: int) -> dict:
    """k[x]/x^a ⋉ (k[x]/x^a)[kappa]: x_i in degree 0, y_i = x_i * eps in degree -kappa."""
    xs = ["1"] + [f"x{i}" for i in range(1, a)]
    ys = [f"y{i}" for i in range(a)]
    mult = []
    for i in range(a):
        for j in range(a - i):
            mult.append(((xs[i], xs[j]), {xs[i + j]: "1"}))
            mult.append(((xs[i], ys[j]), {ys[i + j]: "1"}))
            mult.append(((ys[i], xs[j]), {ys[i + j]: "1"}))
    return _spec([(l, 0) for l in xs] + [(l, -kappa) for l in ys], mult)


def basis_change(spec: dict, rng: random.Random) -> dict:
    """A random diagonal change of basis b -> c_b * b that fixes the units."""
    units = set(spec["units"].values())
    return {
        row["name"]: Fraction(1) if row["name"] in units else rng.choice(FACTORS)
        for row in spec["basis"]
    }


def rescale_table(rows: list, scale: dict) -> list:
    """Structure constants (or cochain values) in the new basis:
    m(b'_1, ..., b'_p) = prod(c_i) * sum_o k_o / c_o * o'."""
    out = []
    for row in rows:
        factor = Fraction(1)
        for lab in row["inputs"]:
            factor *= scale[lab]
        out.append({**row, "output": {o: str(Fraction(c) * factor / scale[o])
                                      for o, c in row["output"].items()}})
    return out


def rescale(spec: dict, scale: dict) -> dict:
    """The spec in the new basis.  A filtration vector sum_l v_l * l becomes
    sum_l v_l / c_l * l'.  Strict unitality, degrees and which entries are
    nonzero are unchanged."""
    new = {**spec, "mult": rescale_table(spec["mult"], scale)}
    if "filtration" in spec:
        new["filtration"] = [
            [{l: str(Fraction(c) / scale[l]) for l, c in vec.items()} for vec in level]
            for level in spec["filtration"]
        ]
    return new


def seeded(spec: dict, rng: random.Random) -> dict:
    return rescale(spec, basis_change(spec, rng))


def _write(path: Path, data: dict) -> str:
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# known answers


def _expect_pass(rc, report):
    if rc != 0 or report.get("verdict") != "PASS":
        return f"expected exit 0 and PASS, got exit {rc} and {report.get('verdict')}"
    return None


def truncated_levels(m: int) -> list:
    """Dims of the appendix filtration of k[x]/x^m: F^p = J^p with J = (x),
    so dim F^p = m - p down to F^m = 0."""
    return list(range(m, -1, -1))


def trivext_levels(a: int, kappa: int) -> list:
    """Dims of the appendix filtration of k[x]/x^a ⋉ (k[x]/x^a)[kappa], a >= 2,
    from the construction in the paper's appendix.

    R_0 = k[x]/x^a with radical J = (x), dim J^p = a - p, nilpotency index a;
    R_{-kappa} = span(y_0, ..., y_{a-1}) and N = (kappa + 2)(a - 1) >= a.
    F^0 = R, F^p = J^p + R_{-kappa} for 1 <= p <= N, and
    F^(N+q) = sum_{u+v=q} J^u R_{-kappa} J^v = span(y_q, ..., y_{a-1}) for
    1 <= q <= a, the first zero level.
    """
    big_n = (kappa + 2) * (a - 1)
    return ([2 * a] + [a + max(a - p, 0) for p in range(1, big_n + 1)]
            + [a - q for q in range(1, a + 1)])


# appendix filtration of fixtures/toy.json with kappa = 1 (acceptance criterion 2)
TOY_LEVELS = [3, 2, 1, 1, 0]


def closed_form_hom_dims(levels: list) -> list:
    """Γ on n = len(levels) - 1 objects: dim Γ(j, i) = dim F^max(j-i,0) - dim F^(n-i)."""
    n = len(levels) - 1
    return [[levels[max(j - i, 0)] - levels[n - i] for j in range(n)] for i in range(n)]


def _expect_hom_dims(want):
    def check(rc, report):
        bad = _expect_pass(rc, report)
        if bad:
            return bad
        if report.get("hom_dims") != want:
            return f"hom dims {report.get('hom_dims')} differ from the closed form {want}"
        return None
    return check


def _expect_levels(want):
    def check(rc, report):
        bad = _expect_pass(rc, report)
        if bad:
            return bad
        if report.get("levels") != want:
            return f"filtration levels {report.get('levels')} differ from the closed form {want}"
        return None
    return check


def _expect_sod(n):
    """PASS on n objects with H(R/F^1) = k in degree 0, and the pattern the
    paper proves: H Hom(P_j, S_i) and H Hom(S_j, S_i) vanish for j > i, and
    H Hom(P_i, S_i) and H End(S_i) are copies of H(R/F^1)."""
    def check(rc, report):
        bad = _expect_pass(rc, report)
        if bad:
            return bad
        if report.get("n") != n:
            return f"{report.get('n')} objects, expected {n}"
        if report.get("rbar_cohomology_dims") != {"0": 1}:
            return f"H(R/F^1) dims {report.get('rbar_cohomology_dims')} != {{0: 1}}"
        for name in ("hom_P_S_dims", "hom_S_S_dims"):
            table = report.get(name, [])
            if [len(row) for row in table] != [n] * n:
                return f"{name} is not an {n} x {n} table"
            for i, row in enumerate(table):
                for j, cell in enumerate(row[i:], start=i):
                    ok = cell["by_degree"] == {"0": 1} if j == i else cell["total"] == 0
                    if not ok:
                        return f"{name}[{i}][{j}] = {cell['by_degree']} breaks semiorthogonality"
        return None
    return check


def _expect_nonassoc(rc, report):
    if rc != 1 or report.get("verdict") != "FAIL":
        return f"expected exit 1 and FAIL, got exit {rc} and {report.get('verdict')}"
    checks = report.get("relations", {}).get("checks", [])
    n3 = next((c for c in checks if c.get("name") == "stasheff_n3"), {})
    if ["x", "x", "x"] not in [w.get("tuple") for w in n3.get("witnesses", [])]:
        return "no (x,x,x) witness for the arity-3 relation"
    return None


def _expect_deform(coboundary: bool):
    def check(rc, report):
        verdict, cocycle = report.get("verdict"), report.get("cocycle")
        if rc != (0 if verdict == "PASS" else 1):
            return f"exit {rc} does not match verdict {verdict}"
        if (verdict == "PASS") != (cocycle is True):
            return f"verdict {verdict} but cocycle {cocycle}: deform must pass iff cocycle"
        if coboundary and verdict != "PASS":
            return "d(phi) is a cocycle but the deformation failed"
        return None
    return check


def _expect_true(rc, value):
    return None if value is True else f"certificate returned {value!r}, expected True"


# ---------------------------------------------------------------------------
# workloads


def _fixture(name: str) -> dict:
    return json.loads((FIXTURES / name).read_text(encoding="utf-8"))


def _appendix(tag, path, work, kappa, check):
    """The step writing the radical-power filtration of ``path``, and its output file."""
    filtered = str(work / f"{tag}.filtered.json")
    argv = ["filtration", "appendix", path, "--kappa", str(kappa), "-o", filtered]
    return Step(f"{tag}/appendix", check, argv=argv), filtered


def _inputs(rng, work: Path, trunc, trivext) -> list:
    """(tag, seeded spec file, kappa, appendix filtration dims) for k[x]/x^m,
    m in ``trunc``, the trivial extensions (a, kappa) in ``trivext``, and toy."""
    inputs = [(f"x{m}", truncated_polynomial(m), 1, truncated_levels(m)) for m in trunc]
    inputs += [(f"trivext{a}k{kappa}", trivial_extension(a, kappa), kappa, trivext_levels(a, kappa))
               for a, kappa in trivext]
    inputs.append(("toy", _fixture("toy.json"), 1, TOY_LEVELS))
    return [(tag, _write(work / f"{tag}.json", seeded(spec, rng)), kappa, levels)
            for tag, spec, kappa, levels in inputs]


def _gamma_trunc(seed: int, work: Path, small: bool) -> tuple:
    """filtration appendix -> gamma build -> validate per input, then stasheff
    on nonassoc.  Returns the steps and the largest Γ file."""
    rng = random.Random(f"gamma-trunc:{seed}")
    trunc = (3, 4) if small else (4, 5)
    steps = []
    for tag, path, kappa, levels in _inputs(rng, work, trunc, ((2, 1),)):
        step, filtered = _appendix(tag, path, work, kappa, _expect_levels(levels))
        gamma = str(work / f"{tag}.gamma.json")
        steps += [step,
                  Step(f"{tag}/gamma-build", _expect_hom_dims(closed_form_hom_dims(levels)),
                       argv=["gamma", "build", filtered, "-o", gamma]),
                  Step(f"{tag}/validate", _expect_pass, argv=["validate", gamma])]
    bad = _write(work / "nonassoc.json", seeded(_fixture("nonassoc.json"), rng))
    steps.append(Step("nonassoc/stasheff", _expect_nonassoc, argv=["stasheff", bad]))
    return steps, str(work / f"x{trunc[-1]}.gamma.json")


def sod_appendix(seed: int, work: Path, small: bool) -> Workload:
    rng = random.Random(f"sod-appendix:{seed}")
    trunc = (4,) if small else (10,)
    trivext = ((2, 1),) if small else ((3, 1), (3, 2))
    steps = []
    for tag, path, kappa, levels in _inputs(rng, work, trunc, trivext):
        step, filtered = _appendix(tag, path, work, kappa, _expect_levels(levels))
        steps += [step, Step(f"{tag}/sod", _expect_sod(len(levels) - 1), argv=["sod", filtered])]
    largest = str(work / f"x{trunc[-1]}.filtered.json")
    return Workload("sod-appendix", steps, pool=(["sod", largest], "pool.sod.speedup"))


def _criterion7_cases():
    """The case list of acceptance criterion 7 (generator seed 707).

    Makes the test's draws exactly, with its algebra generator from
    ``tests/corpus.py``: 50 random cochains (every third a coboundary d(phi))
    followed by 10 coboundaries whose trivialization is certified.  Yields
    (kind, base category, eta, phi).
    """
    rng = random.Random(707)
    tested = 0
    while tested < 50:
        cat = random_associative_algebra(rng)
        module = diagonal_bimodule(cat)
        if tested % 3 == 2:
            phi = _random_cochain(rng, cat, module, rng.choice([1, 2]))
            if phi is None:
                continue
            d_phi = hochschild_differential(phi)
            if d_phi.is_zero():
                continue
            eta = HochschildCochain(cat, module, d_phi.arity, d_phi.table, internal_degree=0)
            yield "dphi", cat, eta, None
        else:
            eta = _random_cochain(rng, cat, module, rng.choice([2, 3]))
            if eta is None:
                continue
            yield "random", cat, eta, None
        tested += 1
    found = 0
    while found < 10:
        cat = random_associative_algebra(rng)
        module = diagonal_bimodule(cat)
        phi = _random_cochain(rng, cat, module, rng.choice([1, 2]))
        if phi is None:
            continue
        yield "coboundary", cat, hochschild_differential(phi), phi
        found += 1


def _deform_707(seed: int, work: Path, small: bool) -> list:
    """Criterion 7's cases, with arity-3 cochains only on bases of dimension <= 3.

    An arity-3 deformation costs about 0.6 s at dimension 4, 2 s at 5 and
    4 to 7 s at 6 (the relation sweep grows like dim^5); the 20 such cases
    take about 54 of the 58 s of the full list.  The remaining 40 cases still
    span 2 ms to 0.2 s per step.  ``small`` keeps bases of dimension <= 3.
    """
    steps = []
    for k, (kind, cat, eta, phi) in enumerate(_criterion7_cases()):
        dim = cat.total_dim()
        if (eta.arity >= 3 and dim > 3) or (small and dim > 3):
            continue
        base = category_to_dict(cat)
        scale = basis_change(base, random.Random(f"deform-707:{seed}:{k}"))
        base = rescale(base, scale)
        base_path = _write(work / f"case{k}.json", base)
        bare = _write(work / f"case{k}.cochain.json", _cochain_dict(eta, scale))
        steps.append(Step(f"case{k}/deform", _expect_deform(kind != "random"),
                          argv=["deform", base_path, "--cochain", bare,
                                "-o", str(work / f"case{k}.out.json")]))
        if phi is not None:
            cat2 = parse_spec_dict(base).category
            module = diagonal_bimodule(cat2)
            phi_dict = _cochain_dict(phi, scale)
            table = {tuple(row["inputs"]): {f"M.{l}": cat2.field.parse(c) for l, c in row["output"].items()}
                     for row in phi_dict["table"]}
            phi2 = HochschildCochain(cat2, module, phi.arity, table)
            # looked up at call time, so that the traced run sees the call
            steps.append(Step(f"case{k}/trivialization", _expect_true,
                              call=lambda c=cat2, m=module, f=phi2: hochschild.coboundary_trivialization(c, m, f)))
    return steps


def _cochain_dict(eta, scale: dict) -> dict:
    """Bare cochain file in the new basis: outputs in base-algebra labels
    (the diagonal bimodule's ``M.`` prefix dropped)."""
    field = eta.base.field
    rows = [
        {"inputs": list(key), "output": {lab[2:]: field.unparse(c) for lab, c in sorted(vec.items())}}
        for key, vec in sorted(eta.table.items())
    ]
    return {"arity": eta.arity, "table": rescale_table(rows, scale)}


# -- criterion 7's cochain generator, draw for draw (it lives in the test module)


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


def relation_sweep(seed: int, work: Path, small: bool) -> Workload:
    steps, largest = _gamma_trunc(seed, work, small)
    steps += _deform_707(seed, work, small)
    return Workload("relation-sweep", steps, pool=(["stasheff", largest], "pool.stasheff.speedup"))


BUILDERS = {"relation-sweep": relation_sweep, "sod-appendix": sod_appendix}


def build(name: str, seed: int, work: Path, small: bool = False) -> Workload:
    work.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](seed, work, small)
