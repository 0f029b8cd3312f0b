"""Finite strictly unital A-infinity categories given by structure constants.

Conventions (used consistently by every module in this package):

* ``hom(x, y)`` is the space of morphisms x -> y.  A tuple
  ``(a_1, ..., a_p)`` is composable when ``src(a_u) = tgt(a_{u+1})``;
  ``m_p`` sends it into ``hom(src(a_p), tgt(a_1))``, and ``m_2(f, g) = f o g``
  (the first argument is the outer morphism).
* Each ``m_p`` has degree ``2 - p``: for every nonzero structure constant,
  ``deg(output) = sum of input degrees + 2 - p``.
* The defining relations checked by :func:`check_stasheff` are, for each
  total arity n and composable tuple,

      sum over r + s + t = n, s >= 1 of
          (-1)^(r + s*t) * m_{r+1+t}(id^r (x) m_s (x) id^t) = 0,

  where inserting ``m_s`` past the first r arguments contributes the Koszul
  sign ``(-1)^(s * (|a_1| + ... + |a_r|))`` (from the rule
  ``(f (x) g)(x (x) y) = (-1)^{|g||x|} f(x) (x) g(y)``).  Reports and
  witnesses use this unshifted convention.  The sums are evaluated in the
  bar convention (:func:`_insertion_sums`), where the relations are the
  brace ``b{b} = 0`` and the one sign is :func:`_epsilon`.
* Strict unitality: ``m_2(1, f) = f = m_2(f, 1)`` and every ``m_p`` with
  ``p != 2`` vanishes as soon as one argument is a unit.

Structure constants are stored sparsely: a missing tuple means the zero
vector.  All values are immutable after construction and all operations are
pure, so categories can be shared freely.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .linalg import GradedSpace
from .scalars import ExactField


class CategoryError(ValueError):
    pass


# ---------------------------------------------------------------------------
# validation reports


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    witnesses: list = dc_field(default_factory=list)
    required: bool = True

    def to_json(self):
        return {
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
            "witnesses": self.witnesses,
        }


class ValidationReport:
    """Pass/fail per check; every failure carries at least one witness.
    ``category`` is the category a :func:`validate_structure` report is of."""

    def __init__(self, category: AInfCategory | None = None):
        self.checks: list[CheckResult] = []
        self.category = category

    def add(self, name, passed, detail="", witnesses=None, required=True):
        witnesses = sorted(witnesses or [], key=lambda w: (w.get("arity", 0), tuple(w.get("tuple", ()))))
        self.checks.append(CheckResult(name, passed, detail, witnesses, required))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.required)

    def check(self, name) -> CheckResult | None:
        for c in self.checks:
            if c.name == name:
                return c
        return None

    def to_json(self):
        return {
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }

    def __repr__(self):
        status = "PASS" if self.passed else "FAIL"
        return f"ValidationReport({status}, {len(self.checks)} checks)"


# ---------------------------------------------------------------------------
# the category


class AInfCategory:
    """Finite A-infinity category: objects, based graded homs, mult tables.

    ``mult[p]`` maps composable basis label tuples to sparse output vectors
    (dicts label -> scalar).  Basis labels are globally unique across all
    hom-spaces; each label knows its source, target and degree.
    """

    def __init__(self, field: ExactField, objects, hom: dict, units: dict, mult: dict):
        self.field = field
        self.objects = tuple(objects)
        if len(set(self.objects)) != len(self.objects):
            raise CategoryError("duplicate object labels")
        self.hom = {}
        self._info = {}
        for x in self.objects:
            for y in self.objects:
                space = hom.get((x, y))
                if space is None:
                    space = GradedSpace((), ())
                self.hom[(x, y)] = space
                for i, lab in enumerate(space.labels):
                    if lab in self._info:
                        raise CategoryError(f"duplicate basis label {lab!r}")
                    self._info[lab] = (x, y, space.degrees[i], i)
        for key in hom:
            if key not in self.hom:
                raise CategoryError(f"hom space attached to unknown objects {key!r}")

        self.units = dict(units)
        for x in self.objects:
            u = self.units.get(x)
            if u is None:
                raise CategoryError(f"object {x!r} has no unit")
            if u not in self._info:
                raise CategoryError(f"unit {u!r} is not a basis label")
            ux, uy, _, _ = self._info[u]
            if ux != x or uy != x:
                raise CategoryError(f"unit {u!r} of {x!r} does not lie in hom({x!r},{x!r})")

        self.mult = {}
        for p, table in mult.items():
            if not isinstance(p, int) or p < 1:
                raise CategoryError(f"bad arity {p!r}")
            clean = {}
            for key, vec in table.items():
                key = tuple(key)
                if len(key) != p:
                    raise CategoryError(f"arity-{p} entry with {len(key)} inputs")
                for lab in key:
                    if lab not in self._info:
                        raise CategoryError(f"unknown basis label {lab!r} in arity-{p} table")
                out = {}
                for lab, c in vec.items():
                    if lab not in self._info:
                        raise CategoryError(
                            f"unknown basis label {lab!r} in output of entry {key}"
                        )
                    c = field.coerce(c)
                    if c != 0:
                        out[lab] = c
                if out:
                    clean[key] = out
            if clean:
                self.mult[p] = clean

    @classmethod
    def _trusted(cls, field: ExactField, objects, hom: dict, units: dict, mult: dict) -> "AInfCategory":
        """The category of tables that are valid by construction (known
        labels, field values, no zero entry, no empty table): objects,
        labels and units are checked as by the constructor, and ``mult`` is
        taken as it is, uncoerced and uncopied."""
        cat = cls(field, objects, hom, units, {})
        cat.mult = mult
        return cat

    # -- basic accessors -------------------------------------------------

    def src(self, label):
        return self._info[label][0]

    def tgt(self, label):
        return self._info[label][1]

    def deg(self, label):
        return self._info[label][2]

    def basis(self, x, y):
        return self.hom[(x, y)].labels

    def all_labels(self):
        for x in self.objects:
            for y in self.objects:
                yield from self.hom[(x, y)].labels

    @property
    def arity_bound(self) -> int:
        return max(self.mult, default=0)

    def total_dim(self) -> int:
        return sum(s.dim for s in self.hom.values())

    def is_unit(self, label) -> bool:
        x = self._info[label][0]
        return self.units.get(x) == label

    def unit_vector(self, x):
        return {self.units[x]: self.field.one}

    # -- element arithmetic ----------------------------------------------

    def apply_labels(self, p: int, labels) -> dict:
        """m_p on a tuple of basis labels (sparse output)."""
        table = self.mult.get(p)
        if table is None:
            return {}
        return dict(table.get(tuple(labels), ()))

    def apply(self, p: int, args) -> dict:
        """m_p on sparse elements, expanded multilinearly."""
        table = self.mult.get(p)
        if table is None:
            return {}
        field = self.field
        out: dict = {}
        for combo in itertools.product(*[a.items() for a in args]):
            entry = table.get(tuple(lab for lab, _ in combo))
            if not entry:
                continue
            coeff = field.one
            for _, c in combo:
                coeff = field.mul(coeff, c)
            if coeff != 0:
                field.add_scaled(out, entry, coeff)
        return out

    def element_to_coords(self, elem: dict, x, y) -> dict:
        """The element as sparse coordinates {index in hom(x, y): scalar}."""
        v = {}
        for lab, c in elem.items():
            sx, sy, _, i = self._info[lab]
            if (sx, sy) != (x, y):
                raise CategoryError(f"element has component {lab!r} outside hom({x!r},{y!r})")
            if c != 0:
                v[i] = c
        return {i: v[i] for i in sorted(v)}

    def coords_to_element(self, coords: dict, x, y) -> dict:
        labels = self.hom[(x, y)].labels
        return {labels[i]: c for i, c in coords.items() if c != 0}

    # -- chains ------------------------------------------------------------

    def composable(self, labels) -> bool:
        """Whether ``src(a_u) = tgt(a_{u+1})`` along the tuple."""
        info = self._info
        return all(info[a][0] == info[b][1] for a, b in zip(labels, labels[1:]))

    # -- equality / copies --------------------------------------------------

    def tables_equal(self, other: "AInfCategory") -> bool:
        return (
            self.objects == other.objects
            and all(self.hom[k].labels == other.hom[k].labels for k in self.hom)
            and all(self.hom[k].degrees == other.hom[k].degrees for k in self.hom)
            and self.units == other.units
            and self.mult == other.mult
        )


class _ProductTable:
    """Products of coordinate vectors of one hom-space, each evaluated once.

    The filtered-algebra sweeps multiply the same spanning vectors over and
    over.  ``intern`` gives each sparse coordinate row ``{index: scalar}`` of
    ``space``, without zeros, an id (equal rows share one); ``product(ids)``
    is m_p of those rows, p = len(ids), as sparse coordinates in ``space``.  It
    calls :meth:`AInfCategory.apply` the first time and is cached after, so
    the products must land in ``space`` too (true in a one-object algebra).
    """

    def __init__(self, cat: AInfCategory, space: GradedSpace):
        self.cat = cat
        self.labels = space.labels
        self._index = {lab: k for k, lab in enumerate(space.labels)}
        self._ids: dict = {}  # row -> id
        self._elements: list = []  # id -> the row as a sparse element
        self._products: dict = {}  # ids -> sparse coordinates

    def intern(self, rows) -> list:
        ids = []
        for row in rows:
            key = frozenset(row.items())
            k = self._ids.get(key)
            if k is None:
                k = self._ids[key] = len(self._elements)
                self._elements.append({self.labels[i]: c for i, c in row.items()})
            ids.append(k)
        return ids

    def product(self, ids: tuple) -> dict:
        out = self._products.get(ids)
        if out is None:
            elem = self.cat.apply(len(ids), [self._elements[k] for k in ids])
            out = self._products[ids] = {self._index[lab]: c for lab, c in elem.items()}
        return out


# ---------------------------------------------------------------------------
# constructors


def algebra(field, basis, unit, mult, obj="*") -> AInfCategory:
    """One-object category from a flat basis list [(label, degree), ...]."""
    labels = tuple(lab for lab, _ in basis)
    degrees = tuple(d for _, d in basis)
    return AInfCategory(
        field,
        (obj,),
        {(obj, obj): GradedSpace(labels, degrees)},
        {obj: unit},
        mult,
    )


# ---------------------------------------------------------------------------
# structural validation


def validate_structure(c: AInfCategory) -> ValidationReport:
    """Degree bookkeeping, composability, strict unitality, minimality flag.
    One walk over the tables in stored order; only the witnesses are sorted,
    by (arity, tuple, output label), the order of a walk over sorted tables."""
    info = c._info
    bad: dict = {"degrees": [], "composability": []}
    for p, table in c.mult.items():
        for key, vec in table.items():
            ins = [info[lab] for lab in key]
            if any(a[0] != b[1] for a, b in zip(ins, ins[1:])):
                bad["composability"].append((p, key, "", "inputs not composable"))
                continue
            out_pair = (ins[-1][0], ins[0][1])
            want = sum(i[2] for i in ins) + 2 - p
            for lab in vec:
                lx, ly, ld, _ = info[lab]
                if (lx, ly) != out_pair:
                    bad["composability"].append((p, key, lab, f"output {lab} in wrong hom-space"))
                elif ld != want:
                    bad["degrees"].append((p, key, lab, f"output {lab} has degree {ld}, expected {want}"))
    report = ValidationReport(c)
    for name, ws in bad.items():
        ws.sort(key=lambda w: w[:3])
        report.add(name, not ws, witnesses=[{"arity": p, "tuple": list(key), "reason": why}
                                            for p, key, _, why in ws])

    unit_bad = list(_unit_witnesses(c))
    report.add("units", not unit_bad, witnesses=unit_bad)

    minimal = 1 not in c.mult
    report.add("minimality", minimal, detail="m_1 = 0" if minimal else "m_1 != 0", required=False)
    return report


def _unit_witnesses(c: AInfCategory):
    """The ``units`` check's witnesses (``ValidationReport.add`` sorts
    them): a unit of degree other than 0, ``m_2(1, f) != f`` or
    ``m_2(f, 1) != f``, a unit in a key of arity other than 2."""
    one = c.field.one
    m2 = c.mult.get(2, {})
    for x in c.objects:
        ud = c.deg(c.units[x])
        if ud != 0:
            yield {"arity": 0, "tuple": [c.units[x]], "reason": f"unit degree {ud}"}
    for (x, y), space in sorted(c.hom.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1]))):
        for lab in space.labels:
            if m2.get((c.units[y], lab)) != {lab: one}:
                yield {"arity": 2, "tuple": [c.units[y], lab], "reason": "m_2(1,f) != f"}
            if m2.get((lab, c.units[x])) != {lab: one}:
                yield {"arity": 2, "tuple": [lab, c.units[x]], "reason": "m_2(f,1) != f"}
    units = set(c.units.values())
    for p, table in c.mult.items():
        if p != 2:
            for key in table:
                if not units.isdisjoint(key):
                    yield {"arity": p, "tuple": list(key), "reason": "higher product nonzero on a unit"}


# ---------------------------------------------------------------------------
# the defining relations


def _breaks(info: dict, key: tuple) -> list:
    """Indices u of the adjacent pairs of ``key`` with src(key[u]) != tgt(key[u+1])."""
    return [u for u in range(len(key) - 1) if info[key[u]][0] != info[key[u + 1]][1]]


def _epsilon(degs) -> int:
    """The one sign of the bar (suspended) convention, eps(a_1..a_p) =
    sum_u (p - u) * |a_u| mod 2: on the key K = (a_1..a_p), ``(-1)^eps(K) *
    T[K]`` turns a table T of the unshifted convention into the bar one,
    where an m_p is an operation of degree 1 on inputs shifted down by one,
    and the same sign turns it back."""
    return sum(degs[-2::-2]) & 1  # the |a_u| with p - u odd


def _insertion_sums(cat: AInfCategory, pairs, singles=(), skip=frozenset()) -> dict:
    """Signed sums of Gerstenhaber insertions, tuple by tuple, exactly.

    Tables map label tuples to sparse output vectors whose labels ``cat``
    knows.  Each of ``pairs`` is ``(outer, inner, sign, degree)``: the brace
    ``sign * outer{inner}`` of the bar convention, sign +1 or -1, where the
    inner table is an operation of degree |J| = ``degree`` on shifted inputs
    (1 for every m_s).  For every outer key K, slot r and inner key J whose
    output has coefficient x at the label K[r], the tuple
    K[:r] + J + K[r+1:] receives

        sign * (-1)^(eps(K) + eps(J) + |J| * sum_{u<r} (|K_u| - 1)) * x * outer[K],

    with eps of :func:`_epsilon` and the Koszul sign of moving J past the
    shifted prefix (Getzler 1993, brace operations; Lefevre-Hasegawa 2003,
    1.2).  In eps(K), slot r has the degree J outputs,
    sum_u |J_u| + |J| + 1 - len(J): that is |K[r]| when the table passes the
    degree check, and it keeps the unshifted sums exact on one that does
    not.  Each of ``singles`` is ``(table, sign)``: the key K receives
    ``sign * (-1)^eps(K) * table[K]``.  Each nonzero sum at a tuple T is
    multiplied by ``(-1)^eps(T)`` at the end, which returns it in the
    unshifted convention of the module docstring.

    Only composable tuples receive terms, and none that holds a label of
    ``skip``: such inner keys and singles are dropped, and an outer key that
    holds one is summed only at its slot.  The sums on every other tuple are
    those of the full sweep.  Returns the nonzero sums as
    ``{tuple: {label: scalar}}``.

    Every term is a product of at most two structure constants, so over Q
    the sums run in ints scaled by D^2, D the lcm of all denominators (a
    single term enters times D), and are divided once at the end; over F_p
    the ints are reduced once at the end.  A joined tuple is composable iff
    J is, every break of K (see :func:`_breaks`) touches slot r, and the
    seams at both ends of J hold, so per term only the seams are tested.
    The sums are kept per (tuple, label) in one flat dict: on valid input
    almost every tuple cancels, and a dict per tuple would take about twice
    the memory.
    """
    info = cat._info
    p = cat.field.characteristic
    tables = {id(t): t for pair in pairs for t in pair[:2]} | {id(t): t for t, _ in singles}
    scale = 1 if p else math.lcm(
        *{v.denominator for t in tables.values() for vec in t.values() for v in vec.values()})
    sums: dict = {}
    indexed: dict = {}  # inner terms by output label, once per (inner, sign, degree)
    for outer, inner, sign, degree in pairs:
        by_output = indexed.get((id(inner), sign, degree))
        if by_output is None:
            by_output = indexed[id(inner), sign, degree] = {}
            for key, vec in inner.items():
                if _breaks(info, key) or not skip.isdisjoint(key):
                    continue
                degs = [info[lab][2] for lab in key]
                flip = _epsilon(degs) ^ (sign < 0)
                slot = (sum(degs) + degree + 1 - len(key)) & 1  # the degree J outputs
                ends = (info[key[0]][1], info[key[-1]][0]) if key else None
                for lab, v in vec.items():
                    v = v.numerator * (scale // v.denominator)
                    by_output.setdefault(lab, []).append((key, ends, -v if flip else v, slot))
        for key, vec in outer.items():
            held = [r for r, lab in enumerate(key) if lab in skip]
            if len(held) > 1:
                continue
            breaks = _breaks(info, key)
            out = None
            last = len(key) - 1
            for r, lab in enumerate(key):
                terms = by_output.get(lab)
                if terms is None or (held and held[0] != r) or (
                        breaks and any(u != r and u != r - 1 for u in breaks)):
                    continue
                if out is None:
                    out = [(l, v.numerator * (scale // v.denominator)) for l, v in vec.items()]
                    degs = [info[l][2] for l in key]
                    eps = _epsilon(degs)
                # eps(K) without slot r's term, which each J supplies, and
                # the prefix Koszul sign |J| * sum_{u<r} (|K_u| - 1)
                after = (last - r) & 1
                a = eps ^ (after & degs[r]) ^ (degree & (sum(degs[:r]) - r) & 1)
                left = info[key[r - 1]][0] if r else None
                right = info[key[r + 1]][1] if r < last else None
                head, tail = key[:r], key[r + 1:]
                for j, ends, v, slot in terms:
                    if ends is None:  # an empty J joins K[r-1] to K[r+1]
                        if 0 < r < last and left != right:
                            continue
                    elif (r and ends[0] != left) or (r < last and ends[1] != right):
                        continue
                    if a ^ (after & slot):
                        v = -v
                    t = head + j + tail
                    for l, w in out:
                        sums[t, l] = sums.get((t, l), 0) + v * w
    for table, sign in singles:
        for key, vec in table.items():
            if _breaks(info, key) or not skip.isdisjoint(key):
                continue
            flip = _epsilon([info[lab][2] for lab in key]) ^ (sign < 0)
            for l, v in vec.items():
                v = v.numerator * (scale // v.denominator) * scale
                sums[key, l] = sums.get((key, l), 0) + (-v if flip else v)
    result: dict = {}
    for (key, l), v in sums.items():
        if v % p if p else v:
            result.setdefault(key, {})[l] = v
    for key, vec in result.items():  # back to the unshifted convention
        flip = -1 if _epsilon([info[lab][2] for lab in key]) else 1
        for l, v in vec.items():
            vec[l] = flip * v % p if p else Fraction(flip * v, scale * scale)
    return result


def _units_certify(structure: ValidationReport) -> bool:
    """Whether strict unitality certifies every tuple that holds a unit, read
    off ``structure``, a :func:`validate_structure` report: its ``units``
    check (no unit witness) and its ``composability`` check (every output in
    the hom-space between its key's ends, so that none escapes the
    ``m_2(1, -)`` entries) both pass."""
    return structure.check("units").passed and structure.check("composability").passed


def check_stasheff(c: AInfCategory, n_max: int | None = None,
                   structure: ValidationReport | None = None) -> ValidationReport:
    """Evaluate the defining relations on every composable tuple up to n_max.

    The relation sum is the insertion of the structure maps into themselves,
    b_s into b_p for every p + s - 1 <= n_max, the brace b{b} of the bar
    convention, reported with the signs of the module docstring; a tuple no
    term reaches satisfies its relation trivially.
    The default bound 2*arity_bound - 1 is sharp: above it every insertion
    term vanishes identically.

    When :func:`_units_certify` holds, tuples that hold a unit are skipped:
    strict unitality cancels their terms in pairs (the reduced bar
    construction; Keller 2001, Lefevre-Hasegawa 2003).  Else the sweep is full.
    The unit verdict has one source, ``structure = validate_structure(c)``:
    a caller that has it passes it, and it is built here when none is given
    or the one given is of another category.
    """
    if n_max is None:
        n_max = max(2 * c.arity_bound - 1, 1)
    if structure is None or structure.category is not c:
        structure = validate_structure(c)
    skip = set(c.units.values()) if _units_certify(structure) else frozenset()

    defects = _insertion_sums(c, [
        (c.mult[p], c.mult[s], 1, 1) for p in c.mult for s in c.mult if p + s - 1 <= n_max
    ], skip=skip)
    by_arity: dict = {n: [] for n in range(1, n_max + 1)}
    for labels, defect in defects.items():
        by_arity[len(labels)].append(
            {
                "arity": len(labels),
                "tuple": list(labels),
                "defect": {lab: c.field.unparse(v) for lab, v in sorted(defect.items())},
            }
        )
    report = ValidationReport()
    for n in range(1, n_max + 1):
        report.add(f"stasheff_n{n}", not by_arity[n], witnesses=by_arity[n])
    return report
