"""The block writer's number formatting.  ``_table._format_g`` gives the
bytes of Python's ``"%.{p}g" % x`` for every float and precision, on its
array path and on its fallback, and ``write_rows`` gives the bytes of
``row % (label, *fields)`` whatever its block size.  Example generation is
derandomized, so every run tries the same inputs."""

import dataclasses
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hdrpcal import _table, harness, svgplot
from hdrpcal._table import write_rows
from hdrpcal.harness import generate_samples, save_samples, validate_model

exact = settings(derandomize=True, deadline=None, max_examples=300, database=None)

#: Any float: subnormals, signed zeros, infinities and nan among them.
VALUES = st.lists(st.floats(), min_size=1, max_size=40)


def formatted(values, p: int) -> list[str]:
    """``_format_g``'s text for each value, padding dropped."""
    slots = _table._format_g(np.asarray(values, dtype=float), p)
    return [col.tobytes().replace(b"\0", b"").decode() for col in slots.T]


def expected(values, p: int) -> list[str]:
    return ["%.*g" % (p, v) for v in values]


@exact
@given(VALUES, st.integers(1, 17))
def test_bytes_are_those_of_percent_g(values, p):
    assert formatted(values, p) == expected(values, p)


@exact
@given(VALUES, st.integers(1, 17))
def test_fallback_gives_the_same_bytes(values, p):
    # A tie margin of 10**p puts every value on Python's path, as a
    # ``longdouble`` no wider than ``double`` puts the widest precisions.
    with mock.patch.object(_table, "_TIE_EPS", 1.0):
        assert formatted(values, p) == expected(values, p)


#: Both neighbours of each power of ten from 1e-6 to 1e20, and the power.
POWERS = [f(10.0 ** k) for k in range(-6, 21)
          for f in (float, lambda x: np.nextafter(x, 0), lambda x: np.nextafter(x, np.inf))]


@pytest.mark.parametrize("p", range(1, 18))
def test_neighbours_of_powers_of_ten(p):
    values = POWERS + [-x for x in POWERS]
    assert formatted(values, p) == expected(values, p)


@pytest.mark.parametrize("value, p", [
    (0.125, 2), (1234567.5, 8), (2.5, 1),  # exact binary ties, rounded to even
    (0.99999995, 6), (999999.5, 6),        # rounding carries into a new digit
])
def test_ties_and_carries(value, p):
    values = [value, -value, np.nextafter(value, 0), np.nextafter(value, np.inf)]
    assert formatted(values, p) == expected(values, p)


#: The widest precision whose rounding ties are all ``longdouble`` values
#: (18 where ``longdouble`` is x87 extended, 15 where it is ``double``):
#: ``_format_g`` keeps no tie margin up to it and the full margin above it.
TIE_BOUND = max(p for p in range(1, 30) if np.longdouble(10) ** p * _table._TIE_EPS <= 0.5)


@pytest.mark.parametrize("p", [TIE_BOUND, TIE_BOUND + 1])
def test_both_sides_of_the_tie_margin_bound(p):
    rng = np.random.default_rng(p)
    values = (rng.uniform(1, 10, 3000) * 10.0 ** rng.integers(-4, p, 3000)).tolist()
    # ties: p + 1 significant digits, the last a 5
    ties = [k + j * 2.0 ** -p for k in (1, 7) for j in (1, 3)] + [0.5 + 2.0 ** -(p + 1)]
    values += ties + [np.nextafter(t, s) for t in ties for s in (0, np.inf)]
    assert formatted(values, p) == expected(values, p)


def reference_write_rows(file, row, columns, labels=None):
    """``write_rows`` as one ``row % (label, *fields)`` per row."""
    fields = np.column_stack(columns).tolist()
    tags = [()] * len(fields) if labels is None else [(k,) for k in labels.tolist()]
    file.write("".join(row % (*tag, *f) for tag, f in zip(tags, fields)))


def text(write) -> str:
    buf = io.StringIO()
    write(buf)
    return buf.getvalue()


SAMPLES = generate_samples(250, seed=4) + generate_samples(50, seed=5, kind="unlit")
_REPORT = validate_model(generate_samples(300, seed=6, quantize=True))
#: A report whose errors hold ties, carries, signed zeros and exponents the
#: fixed notation does not reach, between ordinary values.
REPORT = dataclasses.replace(_REPORT, errors=np.where(
    np.arange(_REPORT.errors.size).reshape(_REPORT.errors.shape) % 3 == 0,
    np.resize([0.0, -0.0, 0.125, 2.5, 1234567.5, 0.99999995, 999999.5, 1e-5,
               -3e-7, 1e20, 5e-324, 1 / 3], _REPORT.errors.shape), _REPORT.errors))
WRITERS = {"samples": lambda fh: save_samples(SAMPLES, fh),
           "report csv": REPORT.to_csv, "report svg": REPORT.to_svg}


@pytest.mark.parametrize("block", [1, 7, _table.BLOCK_VALUES])
@pytest.mark.parametrize("name", list(WRITERS))
def test_bytes_do_not_depend_on_the_block_size(name, block, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(harness, "write_rows", reference_write_rows)
        m.setattr(svgplot, "write_rows", reference_write_rows)
        want = text(WRITERS[name])
    monkeypatch.setattr(_table, "BLOCK_VALUES", block)
    assert text(WRITERS[name]) == want


@pytest.mark.parametrize("block", [1, 7, _table.BLOCK_VALUES])
def test_labels_and_literals(block, monkeypatch):
    monkeypatch.setattr(_table, "BLOCK_VALUES", block)
    rng = np.random.default_rng(7)
    columns = [rng.normal(size=500) * 10.0 ** rng.integers(-8, 8, 500),
               rng.random((500, 2)), np.arange(500.0)]
    labels = np.array(["a", "bé", "", "long label"])[rng.integers(0, 4, 500)]
    row = "<%s|%.0g %.0g;%.0g|%.0g>\n"
    assert text(lambda fh: write_rows(fh, row, columns, labels)) == text(
        lambda fh: reference_write_rows(fh, row, columns, labels))


def test_one_precision_per_row():
    with pytest.raises(ValueError):
        write_rows(io.StringIO(), "%.3g,%.4g\n", [np.zeros((2, 2))])
