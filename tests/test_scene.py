import re

import numpy as np
import pytest

from hdrpcal.errors import ValidationError
from hdrpcal.harness import SampleBatch, predict_unprocessed, predict_values
from hdrpcal.scene import light_direction_from_rotation, post_process, unlit_unprocessed

AXIS_Z = np.array([0.0, 0.0, 1.0])


def white_directional(intensity, direction):
    return dict(d=np.ones(3), i_d=intensity, l=np.asarray(direction, float))


def white_ambient(intensity):
    return dict(a=np.ones(3), i_a=intensity)


def observation(material, normal=AXIS_Z, *, kind="lambertian", e=0.0, **lights):
    """One observation as a one-row batch; ``lights`` holds the ``d, i_d, l``
    and ``a, i_a`` columns, and the recorded value is a placeholder."""
    cols = {"d": np.zeros(3), "i_d": 0.0, "l": AXIS_Z, "a": np.zeros(3), "i_a": 0.0,
            **lights, "m": material, "n": normal, "e": e, "v": np.zeros(3)}
    return SampleBatch(lambertian=[kind == "lambertian"],
                       **{name: [value] for name, value in cols.items()})


def lambertian_unprocessed(material, normal, light, ambient, e=0.0):
    return predict_unprocessed(observation(material, normal, e=e, **light, **ambient))[0]


class TestLambertian:
    def test_head_on_pi_intensity(self):
        # c * s(1) * (pi * s(1) * 1 / pi + 0) / 2**0 = c
        u = lambertian_unprocessed(np.ones(3), AXIS_Z,
                                   white_directional(np.pi, AXIS_Z),
                                   white_ambient(0.0))
        assert u == pytest.approx(np.full(3, 0.822), abs=1e-15)

    def test_backfacing_light_leaves_ambient(self):
        u = lambertian_unprocessed(np.ones(3), AXIS_Z,
                                   white_directional(5.0, -AXIS_Z),
                                   white_ambient(1.0))
        assert u == pytest.approx(np.full(3, 0.822), abs=1e-15)

    def test_exposure_halves(self):
        rng = np.random.default_rng(0)
        m = rng.uniform(0, 1, 3)
        light = white_directional(1.3, AXIS_Z)
        amb = dict(a=rng.uniform(0, 1, 3), i_a=0.7)
        u0 = lambertian_unprocessed(m, AXIS_Z, light, amb, e=0.0)
        u1 = lambertian_unprocessed(m, AXIS_Z, light, amb, e=1.0)
        assert u1 == pytest.approx(u0 / 2.0, rel=1e-15)

    def test_black_material(self):
        u = lambertian_unprocessed(np.zeros(3), AXIS_Z,
                                   white_directional(1.0, AXIS_Z), white_ambient(1.0))
        assert np.array_equal(u, np.zeros(3))

    def test_light_sources_additive(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = rng.uniform(0, 1, 3)
            n = _sphere(rng)
            d = rng.uniform(0, 1, 3)
            l = _sphere(rng)
            a = rng.uniform(0, 2, 3)
            i_d, i_a = rng.uniform(0, 2, 2)
            both = lambertian_unprocessed(
                m, n, dict(d=d, i_d=i_d, l=l), dict(a=a, i_a=i_a))
            directional_only = lambertian_unprocessed(
                m, n, dict(d=d, i_d=i_d, l=l), dict(a=a, i_a=0.0))
            ambient_only = lambertian_unprocessed(
                m, n, dict(d=d, i_d=0.0, l=l), dict(a=a, i_a=i_a))
            assert both == pytest.approx(directional_only + ambient_only, rel=1e-12,
                                         abs=1e-300)

    def test_intensity_scaling(self):
        m = np.full(3, 0.6)
        n = AXIS_Z
        base = lambertian_unprocessed(m, n, white_directional(1.0, AXIS_Z),
                                      white_ambient(0.0))
        double = lambertian_unprocessed(m, n, white_directional(2.0, AXIS_Z),
                                        white_ambient(0.0))
        assert double == pytest.approx(2 * base, rel=1e-15)

    def test_rotation_invariance(self):
        # only l . n matters, so a rigid rotation of both leaves u unchanged
        rng = np.random.default_rng(2)
        m = rng.uniform(0, 1, 3)
        n = _sphere(rng)
        l = _sphere(rng)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        light = dict(d=np.full(3, 0.8), i_d=1.5, l=l)
        rotated = dict(d=np.full(3, 0.8), i_d=1.5, l=q @ l)
        amb = white_ambient(0.3)
        u1 = lambertian_unprocessed(m, n, light, amb)
        u2 = lambertian_unprocessed(m, q @ n, rotated, amb)
        assert u2 == pytest.approx(u1, rel=1e-9)

    def test_non_unit_normal_rejected(self):
        with pytest.raises(ValidationError, match="sample 0: non-unit normal"):
            lambertian_unprocessed(np.ones(3), np.array([0, 0, 0.9]),
                                   white_directional(1.0, AXIS_Z), white_ambient(0.0))

    def test_non_unit_light_direction_rejected(self):
        with pytest.raises(ValidationError, match="sample 0: non-unit light direction"):
            lambertian_unprocessed(np.ones(3), AXIS_Z,
                                   white_directional(1.0, np.array([0, 0, 1.1])),
                                   white_ambient(0.0))

    def test_out_of_range_material_rejected(self):
        with pytest.raises(ValidationError,
                           match=re.escape("sample 0: material color outside [0, 1]")):
            lambertian_unprocessed(np.array([0.5, 1.2, 0.5]), AXIS_Z,
                                   white_directional(1.0, AXIS_Z), white_ambient(0.0))


class TestUnlit:
    def test_endpoints(self):
        assert np.array_equal(unlit_unprocessed(np.zeros(3)), np.zeros(3))
        assert np.array_equal(unlit_unprocessed(np.ones(3)), np.ones(3))

    def test_half(self):
        u = unlit_unprocessed(np.full(3, 0.5))
        assert u == pytest.approx(np.full(3, 0.21404114048223255), abs=1e-15)

    def test_out_of_range(self):
        with pytest.raises(Exception):
            unlit_unprocessed(np.array([0.5, -0.1, 0.5]))


class TestLightDirection:
    def test_identities(self):
        cases = [((0, 0), (0, 0, -1)),
                 ((90, 0), (0, 1, 0)),
                 ((0, 90), (-1, 0, 0))]
        for (x, y), expected in cases:
            got = light_direction_from_rotation(x, y)
            assert np.max(np.abs(got - np.array(expected, float))) < 1e-12

    def test_z_has_no_effect(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            x, y = rng.uniform(-180, 180, 2)
            base = light_direction_from_rotation(x, y, 0.0)
            assert np.array_equal(
                light_direction_from_rotation(x, y, rng.uniform(-360, 360)), base)

    def test_unit_norm(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            l = light_direction_from_rotation(*rng.uniform(-180, 180, 2))
            assert abs(np.linalg.norm(l) - 1.0) < 1e-12


class TestPostProcess:
    def test_identity_endpoints(self):
        assert np.array_equal(post_process(np.zeros(3)), np.zeros(3))
        assert np.array_equal(post_process(np.ones(3)), np.ones(3))

    def test_unlit_round_trip_is_material(self):
        # v = s^-1(f(s(m))) = m when tonemapping is disabled
        rng = np.random.default_rng(6)
        m = rng.uniform(0, 1, (100, 3))
        v = post_process(unlit_unprocessed(m), None)
        assert v == pytest.approx(m, abs=1e-12)

    def test_tonemap_contract_violation(self):
        class Broken:
            def apply(self, u):
                return np.full_like(np.asarray(u, float), 1.5)

        with pytest.raises(ValidationError):
            post_process(np.full(3, 0.5), Broken())

    def test_negative_input_rejected(self):
        with pytest.raises(ValidationError):
            post_process(np.array([-0.1, 0.0, 0.0]))


class TestRender:
    def test_unlit_identity_is_material(self):
        v = predict_values(observation(np.array([0.25, 0.5, 0.75]), kind="unlit"))[0]
        assert v == pytest.approx([0.25, 0.5, 0.75], abs=1e-12)

    def test_lambertian_composition(self):
        m = np.full(3, 0.7)
        light = white_directional(1.2, AXIS_Z)
        amb = white_ambient(0.4)
        u = lambertian_unprocessed(m, AXIS_Z, light, amb)
        v = predict_values(observation(m, AXIS_Z, **light, **amb))[0]
        assert np.array_equal(v, post_process(u))

    def test_quantized_unlit(self):
        v = predict_values(observation(np.full(3, 0.002), kind="unlit"),
                           quantize=True)[0]
        assert v == pytest.approx(np.full(3, 1 / 255), abs=0)


def _sphere(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)
