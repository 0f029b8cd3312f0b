"""The JSON writer behind spec files and reports, against ``json.dumps``.

``specfile.serialize`` and the CLI's reports must be byte-identical to what
``json.dumps(obj, indent=2)`` (plus a newline for files) writes.
"""

import enum
import json
import random
from collections import OrderedDict
from fractions import Fraction
from pathlib import Path

import pytest

from ainfbench.cli import main
from ainfbench.hochschild import diagonal_bimodule
from ainfbench.specfile import _dumps, category_to_dict, serialize

from .corpus import random_cochain, toy_algebra, trivial_extension, truncated_polynomial

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def oracle(value) -> str:
    return json.dumps(value, indent=2) + "\n"


def assert_written_by_oracle(text: str) -> None:
    value = json.loads(text)
    assert serialize(value) == oracle(value) == text


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.name)
def test_writer_matches_json_on_fixtures(path):
    data = json.loads(path.read_text(encoding="utf-8"))
    assert serialize(data) == oracle(data)


def _cochain_section(cat, seed: int) -> dict:
    """A random arity-2 cochain of ``cat`` in the spec file's raw form
    (outputs in base-algebra labels)."""
    rng = random.Random(seed)
    eta = None
    while eta is None:
        eta = random_cochain(rng, cat, diagonal_bimodule(cat), 2)
    return {
        "arity": 2,
        "table": {key: {lab[2:]: c for lab, c in vec.items()} for key, vec in eta.table.items()},
    }


CASES = {
    "toy": toy_algebra,
    "x4": lambda: truncated_polynomial(4),
    "trivext21": lambda: trivial_extension(2, 1),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_writer_matches_json_on_cli_outputs(name, tmp_path, capsys):
    # the appendix, Γ and deform files and every report of the chain
    category = CASES[name]()
    base, cochain = tmp_path / "base.json", tmp_path / "cochain.json"
    base.write_text(serialize(category_to_dict(category)))
    cochain.write_text(serialize(category_to_dict(category, cochain=_cochain_section(category, 3))))
    appendix, gamma, deformed = (tmp_path / f for f in ("appendix.json", "gamma.json", "deformed.json"))
    for argv in (
        ["filtration", "appendix", str(base), "--kappa", "1", "-o", str(appendix)],
        ["gamma", "build", str(appendix), "-o", str(gamma)],
        ["validate", str(gamma)],
        ["sod", str(appendix)],
        ["deform", str(base), "--cochain", str(cochain), "-o", str(deformed)],
    ):
        assert main(argv) in (0, 1), argv
        assert_written_by_oracle(capsys.readouterr().out)
    assert deformed.exists() == (name != "toy")  # deform refuses toy, which has an m_3
    for path in (appendix, gamma, deformed, cochain):
        if path.exists():
            assert_written_by_oracle(path.read_text(encoding="utf-8"))


class Colour(enum.IntEnum):
    RED = 1


class Label(str):
    pass


STRING_ALPHABET = 'ab "\\/\n\r\t\b\f\x00\x01\x1f\x7f\x80\xe9\xdf\u65e5\u2028\ud7ff\ud800\U0001f600'
FLOATS = (0.0, -0.0, 0.1, 1e-07, 1e16, -2.5, 1.5e300, 5e-324, float("inf"), float("-inf"), float("nan"))
INTS = (0, 1, -1, 2**63, -(2**64) - 1, 10**40, Colour.RED)
EMPTIES = ([], {}, (), [[]], [{}], {"": {}}, {"a": []}, ((),), OrderedDict(), [[], {}])


def random_string(rng) -> str:
    s = "".join(rng.choice(STRING_ALPHABET) for _ in range(rng.randint(0, 6)))
    return Label(s) if rng.random() < 0.05 else s


def random_key(rng):
    return rng.choice(INTS) if rng.random() < 0.2 else random_string(rng)


def random_value(rng, depth=0):
    kind = rng.randrange(6 if depth >= 4 else 10)
    if kind == 0:
        return random_string(rng)
    if kind == 1:
        return rng.choice(INTS) if rng.random() < 0.5 else rng.randint(-10**6, 10**6)
    if kind == 2:
        return rng.choice(FLOATS) if rng.random() < 0.5 else rng.uniform(-1e6, 1e6)
    if kind == 3:
        return rng.choice((True, False, None))
    if kind == 4:
        return rng.choice(EMPTIES)
    if kind == 5:
        return random_string(rng)
    items = [random_value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    if kind == 6:
        return items
    if kind == 7:
        return tuple(items)
    return {random_key(rng): v for v in items}


def test_writer_matches_json_on_random_values():
    rng = random.Random(10)
    values = [random_value(rng) for _ in range(600)]
    nested = sum(isinstance(v, (list, tuple, dict)) and len(v) > 0 for v in values)
    assert nested >= 150
    for value in values:
        assert serialize(value) == oracle(value), repr(value)


@pytest.mark.parametrize("value", [
    Fraction(1, 2),
    {1, 2},
    [1, Fraction(1, 3)],
    {"a": {"b": {3}}},
    object(),
], ids=["fraction", "set", "nested-fraction", "nested-set", "object"])
def test_writer_rejects_what_json_cannot_encode(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2)
    with pytest.raises(TypeError):
        _dumps(value)


@pytest.mark.parametrize("key", [True, False, None, 1.5, (1, 2), Fraction(1, 2)],
                         ids=["true", "false", "none", "float", "tuple", "fraction"])
def test_writer_rejects_keys_it_does_not_encode(key):
    # json.dumps writes these keys as "true", "null", "1.5", ... or raises;
    # the writer takes str and int keys only and never writes another form
    with pytest.raises(TypeError):
        _dumps({key: 1})
    with pytest.raises(TypeError):
        _dumps([{"a": {key: 1}}])
