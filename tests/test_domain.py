"""Every entry point that takes an input array rejects a non-finite value,
a value below 0, a value above its upper bound and, for (..., 3) input, a
wrong last axis, with a ValidationError that starts with the entry point's
name; input numpy cannot convert to a float array counts as not finite.  Entry points that need a fixed number of axes reject the others.  A
CubeLUT takes only a domain and a title that its writer and reader round-trip,
and a .cube file whose domain breaks that rule names its DOMAIN line.  An
AchromaticDisplay and a GammaCorrectionSpec's input range take only int or
float values of finite value, numpy scalars among them; the display writer
writes them, and the fit report's fields, as plain JSON numbers, and writes
nothing when a field cannot be written.  The other scalar inputs follow the
same finite-number rule, and a grid size, a knot or sweep index, a sample
count or a seed must also be an int."""

import copy
import io
import json
import pickle
import re
import tracemalloc

import numpy as np
import pytest

from hdrpcal.calibrate import DeltaSweep, GammaCorrectionSpec, gamma_tonemap
from hdrpcal.cli import main
from hdrpcal.colorspace import (quantize_8bit, srgb_decode, srgb_decode3,
                                srgb_encode, srgb_encode3)
from hdrpcal.cubelut import (CubeLUT, CubeTonemap, KnotGrid, default_knot_grid,
                             make_delta_cube, parse_cube, separable_cube, serialize_cube)
from hdrpcal.display import (AchromaticDisplay, ChromaticDisplay, FitReport,
                             Measurement, load_display, save_display,
                             solve_background_weights)
from hdrpcal.errors import CubeFormatError, ValidationError
from hdrpcal.harness import SampleBatch, generate_samples, simulate_characterization
from hdrpcal.scene import light_direction_from_rotation, post_process

ACHROMATIC = AchromaticDisplay(l0=1.0, l1=10.0, gamma=2.2)
CHROMATIC = ChromaticDisplay(primary_r=[41.24, 21.26, 1.93],
                             primary_g=[35.76, 71.52, 11.92],
                             primary_b=[18.05, 7.22, 95.03],
                             background=[0.5, 0.5, 0.5], gammas=[2.2] * 3,
                             weights=[0.01] * 3)
SPEC = GammaCorrectionSpec(ACHROMATIC, input_range=1.111)
TONEMAP = CubeTonemap(default_knot_grid(), make_delta_cube(16))
TRIPLETS = np.full((4, 3), 0.5)
LEVELS = np.array([0.1, 0.25, 0.5, 0.75])

#: op, call on an input array, a valid input, whether it is (..., 3) with a
#: checked last axis, and the upper bound.  A bad value replaces the first
#: element of the valid input.
ENTRY_POINTS = [
    ("srgb_decode", srgb_decode, LEVELS, False, 1.0),
    ("srgb_encode", srgb_encode, LEVELS, False, 1.0),
    ("srgb_decode3", srgb_decode3, TRIPLETS, True, 1.0),
    ("srgb_encode3", srgb_encode3, TRIPLETS, True, 1.0),
    ("quantize_8bit", quantize_8bit, TRIPLETS, True, 1.0),
    ("post_process", post_process, TRIPLETS, True, np.inf),
    ("CubeTonemap.apply", TONEMAP.apply, TRIPLETS, True, np.inf),
    ("gamma_tonemap", lambda x: gamma_tonemap(SPEC, x), TRIPLETS, True, np.inf),
    ("channel_tonemaps", SPEC.channel_tonemaps()[0], LEVELS, False, np.inf),
    ("AchromaticDisplay.luminance", ACHROMATIC.luminance, LEVELS, False, 1.0),
    ("ChromaticDisplay.xyz", CHROMATIC.xyz, TRIPLETS, True, 1.0),
    ("Measurement v", lambda x: Measurement(v=x, luminance=np.ones(len(x))),
     TRIPLETS, True, 1.0),
    ("Measurement luminance", lambda x: Measurement(v=TRIPLETS, luminance=x),
     LEVELS, False, np.inf),
    ("Measurement xyz", lambda x: Measurement(v=TRIPLETS, xyz=x),
     TRIPLETS, False, np.inf),
    ("CubeLUT", CubeLUT, np.full((2, 2, 2, 3), 0.5), False, 1.0),
    ("KnotGrid", lambda x: KnotGrid([np.nan, np.nan, *x]), LEVELS, False, np.inf),
    ("simulate_characterization",
     lambda x: simulate_characterization(ACHROMATIC, x), LEVELS, False, np.inf),
    ("DeltaSweep inputs", lambda x: DeltaSweep(m=3, inputs=x, outputs=LEVELS),
     LEVELS, False, np.inf),
]


def non_numeric(valid, k):
    """The valid input made unconvertible, the ``k % 4``-th of four ways."""
    if k % 4 == 3:
        return [valid[:1].tolist()] + valid[1:].tolist()  # ragged
    x = valid.astype(object)
    x.flat[0] = ("x", 2**2000, object())[k % 4]
    return x


def cases():
    for k, (op, call, valid, triplet, hi) in enumerate(ENTRY_POINTS):
        where = "channel r" if triplet else "input {}"
        bad = [("nan", np.nan, "input must be finite"),
               ("inf", np.inf, "input must be finite"),
               ("below 0", -0.5, f"{where.format(-0.5)} outside [0, {hi:g}]")]
        if hi < np.inf:
            bad.append(("above hi", 1.5, f"{where.format(1.5)} outside [0, {hi:g}]"))
        for case, value, message in bad:
            x = valid.copy()
            x.flat[0] = value
            yield pytest.param(call, x, f"{op}: {message}", id=f"{op}-{case}")
        yield pytest.param(call, non_numeric(valid, k), f"{op}: input must be finite",
                           id=f"{op}-non-numeric")
        if triplet:
            yield pytest.param(call, valid[..., :2],
                               f"{op}: expected shape (..., 3), got (4, 2)",
                               id=f"{op}-last axis")


@pytest.mark.parametrize("op, call, valid, triplet, hi", ENTRY_POINTS,
                         ids=[entry[0] for entry in ENTRY_POINTS])
def test_valid_input_accepted(op, call, valid, triplet, hi):
    call(valid.copy())


def test_value_types_keep_private_copies():
    """The value types store read-only copies; the caller's arrays stay writeable."""
    cube, knots = np.full((2, 2, 2, 3), 0.5), np.array([np.nan, np.nan, 1.0, 2.0])
    v, luminance, xyz = TRIPLETS.copy(), np.ones(4), np.ones((4, 3))
    CubeLUT(cube), KnotGrid(knots)
    Measurement(v=v, luminance=luminance), Measurement(v=v, xyz=xyz)
    assert all(a.flags.writeable for a in (cube, knots, v, luminance, xyz))


VALUE_TYPES = {
    "curve cube": lambda: make_delta_cube(3),
    "separable cube": lambda: CubeLUT(make_delta_cube(3, size=4).outputs),
    "general cube": lambda: CubeLUT(np.random.default_rng(0).uniform(0, 1, (2, 2, 2, 3))),
    "knot grid": default_knot_grid,
    "sweep": lambda: DeltaSweep(m=3, inputs=LEVELS, outputs=LEVELS),
    "measurement": lambda: Measurement(v=[0.5, 0.5, 0.5], luminance=2.0),
    "chromatic display": lambda: CHROMATIC,
    "samples": lambda: generate_samples(4, seed=0),
}


@pytest.mark.parametrize("copy_of", [copy.copy, copy.deepcopy,
                                     lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("make", VALUE_TYPES.values(), ids=VALUE_TYPES.keys())
def test_copies_keep_arrays_read_only(make, copy_of):
    """A copied or unpickled value type holds the same arrays, read-only; a
    cube made from curves still holds just its curves."""
    original = make()
    copied = copy_of(original)
    assert sorted(vars(copied)) == sorted(vars(original))
    arrays = {name: a for name, a in vars(copied).items() if isinstance(a, np.ndarray)}
    assert arrays and not any(a.flags.writeable for a in arrays.values())
    assert all(np.array_equal(a, vars(original)[name], equal_nan=True)
               for name, a in arrays.items())
    if isinstance(copied, CubeLUT) and copied.separable_channels() is not None:
        assert not any(c.flags.writeable for c in copied.separable_channels())
        serialize_cube(copied)
        assert ("outputs" in vars(copied)) == ("outputs" in vars(original))


@pytest.mark.parametrize("call, x, message", cases())
def test_out_of_domain_rejected(call, x, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call(x)


@pytest.mark.parametrize("call, x, message", [
    (CubeLUT, 0.5, "cube outputs must be (n, n, n, 3), got ()"),
    (CubeLUT, np.full((2, 2, 3), 0.5), "cube outputs must be (n, n, n, 3), got (2, 2, 3)"),
    (lambda x: simulate_characterization(ACHROMATIC, x), 0.5,
     "simulate_characterization: expected 1-D levels, got shape ()"),
    (lambda x: simulate_characterization(ACHROMATIC, x), np.full((2, 2), 0.5),
     "simulate_characterization: expected 1-D levels, got shape (2, 2)"),
    (lambda x: ChromaticDisplay(x, *[[1.0, 1.0, 1.0]] * 5), [1.0, 2.0],
     "primary_r must be a finite 3-vector"),
    (lambda x: solve_background_weights(x, x, x, [1.0, 1.0, 1.0]), [1.0, 2.0],
     "primaries must be 3-vectors"),
    (lambda x: SampleBatch(x, *[None] * 9), np.ones((2, 2), bool),
     "sample kind mask must be one-dimensional"),
    (lambda x: KnotGrid.from_active(x, size=5), [1.0, 2.0], "expected 3 active knots, got 2"),
    (lambda x: KnotGrid.from_active(x, size=4, active_start=0), np.arange(1.0, 6.0),
     "active_start must be in 1..4, got 0"),
], ids=["CubeLUT scalar", "CubeLUT 3-D", "levels scalar", "levels 2-D", "primary 2-vector",
        "background weights 2-vectors", "kind mask 2-D", "active knots 2 of 3",
        "active_start 0 of size 4"])
def test_wrong_axes_rejected(call, x, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call(x)


LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize("keyword, value", [
    ("domain_min", [0, 0]),
    ("domain_min", [np.nan, 0, 0]),
    ("domain_min", [2, 2, 2]),  # above the default domain_max
    ("domain_min", 5.0),
    ("domain_max", [1, np.inf, 1]),
    ("domain_max", [[1, 1, 1]]),
    ("title", "a\nb"),
    ("title", 5),
] + [("title", f"a{c}") for c in LINE_BREAKS], ids=repr)
def test_cube_domain_and_title_rejected(keyword, value):
    """What ``serialize_cube`` could not write back through ``parse_cube``:
    a domain bound that is not three finite numbers above the other bound,
    a title that is not a string, and one holding any line break
    ``str.splitlines`` splits on."""
    message = ("cube domain must be" if keyword != "title" else
               "cube title must not" if isinstance(value, str) else "cube title must be a string")
    with pytest.raises(ValidationError, match=f"^{message}"):
        CubeLUT(np.zeros((2, 2, 2, 3)), **{keyword: value})


@pytest.mark.parametrize("title, domain_min, domain_max", [
    ("", [0, 0, 0], [1, 1, 1]),
    ('a "b" \t', [-1, 0, 0.5], [1e30, 2, 0.75]),
], ids=["defaults", "quoted title"])
def test_cube_domain_and_title_round_trip(title, domain_min, domain_max):
    lut = CubeLUT(np.zeros((2, 2, 2, 3)), title=title, domain_min=domain_min,
                  domain_max=domain_max)
    back = parse_cube(serialize_cube(lut))
    assert back.title == title
    assert back.domain_min.tolist() == domain_min
    assert back.domain_max.tolist() == domain_max


@pytest.mark.parametrize("keywords, line", [
    ("DOMAIN_MIN 1 1 1\n", 2),
    ("DOMAIN_MAX 0 0.5 0.5\n", 2),
    ('TITLE "t"\nDOMAIN_MIN 0.5 0.5 0.5\n# c\nDOMAIN_MAX 0.5 1 1\n', 5),
], ids=["min at max", "max at min", "min at max, last line"])
def test_cube_domain_error_names_its_line(tmp_path, capsys, keywords, line):
    text = "LUT_3D_SIZE 2\n" + keywords + "0 0 0\n" * 8
    with pytest.raises(CubeFormatError, match=rf"^cube domain must be .* \(line {line}\)$"):
        parse_cube(text)
    path = tmp_path / "bad.cube"
    path.write_text(text)
    assert main(["simulate", "--samples", "1", "--tonemap", str(path)]) == 2
    assert f"(line {line})" in capsys.readouterr().err


@pytest.mark.parametrize("make, message", [
    (lambda: KnotGrid(np.arange(257.0)),
     "knot grid needs 1 <= active_start < size <= 256, got active_start 3, size 257"),
    (lambda: CubeLUT(np.zeros((1, 1, 1, 3))), "cube size must be in 2..256, got 1"),
    (lambda: CubeLUT(np.zeros((0, 0, 0, 3))), "cube size must be in 2..256, got 0"),
    (lambda: make_delta_cube(1, size=1), "cube size must be in 2..256, got 1"),
    (lambda: make_delta_cube(1, size=10**6), "cube size must be in 2..256, got 1000000"),
], ids=["knots 257", "cube 1", "cube 0", "delta 1", "delta 10**6"])
def test_grid_size_outside_the_cube_format_rejected(make, message):
    """The knot CSV and .cube readers take sizes 2..256 only."""
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        make()


def test_delta_cube_size_rejected_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=r"^cube size must be in 2\.\.256, "
                                                  r"got 1000000$"):
            make_delta_cube(1, size=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


KNOTS = [np.nan, np.nan, 1.0, 2.0]
KNOT_RANGE = "knot grid needs 1 <= active_start < size <= 256, got active_start "


@pytest.mark.parametrize("make, message", [
    (lambda: CubeLUT(np.zeros((2, 2, 2, 3)), domain_min=["x", 0, 0]),
     "cube domain must be 3 finite numbers per bound, min < max per channel; "
     "got ['x', 0, 0] to [1.0, 1.0, 1.0]"),
    (lambda: CubeLUT(np.zeros((2, 2, 2, 3)), domain_max=[2**2000, 1, 1]),
     "cube domain must be 3 finite numbers per bound, min < max per channel; "
     f"got [0.0, 0.0, 0.0] to [{2**2000}, 1, 1]"),
    (lambda: KnotGrid(KNOTS, active_start="3"), KNOT_RANGE + "'3', size 4"),
    (lambda: KnotGrid(KNOTS, active_start=2.5), KNOT_RANGE + "2.5, size 4"),
    (lambda: KnotGrid(KNOTS, active_start=True), KNOT_RANGE + "True, size 4"),
    (lambda: KnotGrid.from_active([1.0, 2.0], size="4"),
     "knot grid size and active_start must be integers"),
    (lambda: KnotGrid.from_active([1.0, 2.0], size=4, active_start=3.0),
     "knot grid size and active_start must be integers"),
    (lambda: make_delta_cube(2.5), "delta index must be an integer in 1..32, got 2.5"),
    (lambda: make_delta_cube("3"), "delta index must be an integer in 1..32, got '3'"),
    (lambda: make_delta_cube(3, size=4.0), "delta index must be an integer in 1..4.0, got 3"),
    (lambda: make_delta_cube(True), "delta index must be an integer in 1..32, got True"),
    (lambda: GammaCorrectionSpec("x"), "not a display model: 'x'"),
    (lambda: save_display("x", io.StringIO()), "not a display model: 'x'"),
    (lambda: load_display(io.StringIO("[1]")), "display JSON must be an object"),
    (lambda: separable_cube(default_knot_grid(), (np.sqrt, np.sqrt)),
     "fn must be one callable or a triple"),
    (lambda: DeltaSweep(m=2.5, inputs=LEVELS, outputs=LEVELS),
     "sweep index must be an integer, got 2.5"),
    (lambda: DeltaSweep(m="q", inputs=LEVELS, outputs=LEVELS),
     "sweep index must be an integer, got 'q'"),
    (lambda: DeltaSweep(m=True, inputs=LEVELS, outputs=LEVELS),
     "sweep index must be an integer, got True"),
    (lambda: generate_samples(2.5, seed=0), "count must be >= 1"),
    (lambda: generate_samples(np.nan, seed=0), "count must be >= 1"),
    (lambda: generate_samples("5", seed=0), "count must be >= 1"),
    (lambda: generate_samples(True, seed=0), "count must be >= 1"),
    (lambda: generate_samples(4, seed=True), "seed must be a non-negative integer, got True"),
    (lambda: generate_samples(4, seed=np.True_),
     f"seed must be a non-negative integer, got {np.True_!r}"),
    (lambda: generate_samples(4, seed=2.0), "seed must be a non-negative integer, got 2.0"),
    (lambda: generate_samples(4, seed=0, exposure_choices=["a"]),
     "exposure_choices: input must be finite"),
    (lambda: generate_samples(4, seed=0, exposure_choices=5),
     "exposure_choices must be a finite 1-D array"),
], ids=["domain str", "domain 2**2000", "active_start str", "active_start 2.5",
        "active_start bool", "from_active size str", "from_active active_start float",
        "delta 2.5", "delta str", "delta size float", "delta bool", "spec display str",
        "saved display str", "display JSON list", "fn pair", "sweep index 2.5",
        "sweep index str", "sweep index bool", "count 2.5", "count nan", "count str",
        "count bool", "seed bool", "seed numpy bool", "seed float", "exposure str",
        "exposure scalar"])
def test_argument_of_the_wrong_type_rejected(make, message):
    """A bool is not a number, and a count or index must be an int."""
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        make()


def test_numpy_integers_are_integers():
    assert make_delta_cube(np.int64(3), size=np.int32(4)).size == 4
    assert KnotGrid(KNOTS, active_start=np.int64(3)).active_values.tolist() == [1.0, 2.0]
    assert KnotGrid.from_active([1.0, 2.0], size=np.int64(4), active_start=np.int8(3)).size == 4
    assert DeltaSweep(m=np.int64(3), inputs=LEVELS, outputs=LEVELS).m == 3
    assert generate_samples(np.int64(2), seed=np.uint8(1)).v.tolist() == \
        generate_samples(2, seed=1).v.tolist()


ACHROMATIC_FIELDS = {"l0": 1.0, "l1": 10.0, "gamma": 2.2}


@pytest.mark.parametrize("field, value", [
    ("gamma", 2**2000), ("gamma", 2**1024), ("l1", "2"), ("gamma", True),
    ("l0", np.bool_(False)), ("l0", np.float32("nan")), ("l1", np.float64("inf")),
    ("gamma", None),
], ids=["2**2000", "2**1024", "str", "bool", "numpy bool", "float32 nan",
        "float64 inf", "None"])
def test_achromatic_field_not_a_finite_number_rejected(field, value):
    with pytest.raises(ValidationError, match=f"^{field} must be a finite number$"):
        AchromaticDisplay(**ACHROMATIC_FIELDS | {field: value})


@pytest.mark.parametrize("field, value, written", [
    ("l0", np.float32(1.0), 1.0),
    ("l0", np.float32(0.1), 0.10000000149011612),
    ("l1", np.int64(7), 7),
    ("gamma", 2**64, 2**64),
    ("gamma", 3, 3),
], ids=["float32", "float32 0.1", "int64", "2**64", "int"])
def test_achromatic_numeric_fields_written_as_json_numbers(field, value, written):
    """Numpy scalars are written as plain numbers, and an int stays an int."""
    buf = io.StringIO()
    save_display(AchromaticDisplay(**ACHROMATIC_FIELDS | {field: value}), buf)
    doc = json.loads(buf.getvalue())
    assert doc[field] == written and type(doc[field]) is type(written)
    buf.seek(0)
    assert getattr(load_display(buf), field) == float(value)


@pytest.mark.parametrize("value", [2**2000, "2", True], ids=["2**2000", "str", "bool"])
def test_input_range_not_a_finite_number_rejected(value):
    with pytest.raises(ValidationError, match="^input range must be a finite number$"):
        GammaCorrectionSpec(ACHROMATIC, input_range=value)


@pytest.mark.parametrize("call, message", [
    (lambda: GammaCorrectionSpec(ACHROMATIC, input_range=-1), "input range must be > 0"),
    (lambda: light_direction_from_rotation("1", 0.0), "rotation angles must be finite"),
    (lambda: light_direction_from_rotation(0.0, np.nan), "rotation angles must be finite"),
    (lambda: light_direction_from_rotation(0.0, 0.0, np.inf),
     "rotation angles must be finite"),
    (lambda: generate_samples(4, seed=0, ambient_color_max=np.nan),
     "ambient_color_max must be >= 0"),
    (lambda: generate_samples(4, seed=0, ambient_color_max=np.inf),
     "ambient_color_max must be >= 0"),
    (lambda: generate_samples(4, seed=0, directional_intensity_range=(0.0, np.nan)),
     "invalid directional intensity range (0.0, nan)"),
    (lambda: generate_samples(4, seed=0, ambient_intensity_range=(0.0, np.inf)),
     "invalid ambient intensity range (0.0, inf)"),
    (lambda: generate_samples(4, seed=0, kind="metal"), "unknown material kind 'metal'"),
    (lambda: generate_samples(4, seed=0, exposure_choices=()),
     "exposure_choices must be nonempty"),
    (lambda: generate_samples(4, seed=0, exposure_choices=(0.0, np.nan)),
     "exposure_choices must be a finite 1-D array"),
    (lambda: generate_samples(4, seed=0, exposure_choices=[[0.0]]),
     "exposure_choices must be a finite 1-D array"),
    (lambda: generate_samples(0, seed=0), "count must be >= 1"),
], ids=["input range -1", "angle str", "angle nan", "angle inf", "ambient max nan",
        "ambient max inf", "directional nan", "ambient range inf", "kind metal",
        "no exposures", "exposure nan", "exposures 2-D", "count 0"])
def test_scalar_outside_its_domain_rejected(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("field, value, written", [
    ("residual_rms", np.float32(0.1), 0.10000000149011612),
    ("n_points", np.int64(3), 3),
], ids=["float32 rms", "int64 count"])
def test_fit_report_fields_written_as_json_numbers(field, value, written):
    report = FitReport(**{"residual_rms": 0.5, "n_points": 3} | {field: value},
                       residuals=np.zeros(3))
    buf = io.StringIO()
    save_display(ACHROMATIC, buf, report)
    fit = json.loads(buf.getvalue())["fit"]
    assert fit[field] == written and type(fit[field]) is type(written)


@pytest.mark.parametrize("field, value", [
    ("residual_rms", object()), ("n_points", 3.5),
], ids=["object rms", "float count"])
def test_fit_report_field_that_cannot_be_written_writes_nothing(field, value):
    report = FitReport(**{"residual_rms": 0.5, "n_points": 3} | {field: value},
                       residuals=np.zeros(3))
    buf = io.StringIO()
    with pytest.raises(TypeError):
        save_display(ACHROMATIC, buf, report)
    assert buf.getvalue() == ""
