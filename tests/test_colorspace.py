import numpy as np
import pytest

from hdrpcal.colorspace import (quantize_8bit, srgb_decode, srgb_decode3,
                                srgb_encode, srgb_encode3)
from hdrpcal.errors import ValidationError


class TestSrgbDecode:
    def test_fixed_points(self):
        assert srgb_decode(0.0) == 0.0
        assert srgb_decode(1.0) == 1.0

    def test_breakpoint_linear_branch(self):
        # 0.04045 / 12.92, evaluated independently
        assert srgb_decode(0.04045) == pytest.approx(0.0031308049535603713, abs=1e-15)

    def test_breakpoint_branch_continuity(self):
        linear = 0.04045 / 12.92
        power = ((0.04045 + 0.055) / 1.055) ** 2.4
        assert abs(linear - power) < 1e-7
        assert srgb_decode(0.04045) == pytest.approx(linear)

    def test_half(self):
        # ((0.5 + 0.055) / 1.055) ** 2.4 by independent evaluation
        assert srgb_decode(0.5) == pytest.approx(0.21404114048223255, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValidationError,
                           match=r"^srgb_decode: input -0\.001 outside \[0, 1\]$"):
            srgb_decode(-0.001)
        with pytest.raises(ValidationError,
                           match=r"^srgb_decode: input 1\.001 outside \[0, 1\]$"):
            srgb_decode(1.001)
        with pytest.raises(ValidationError, match="^srgb_decode: input must be finite$"):
            srgb_decode(float("nan"))

    def test_monotone_and_compressive(self):
        rng = np.random.default_rng(0)
        x = np.sort(rng.uniform(0, 1, 2000))
        y = srgb_decode(x)
        assert np.all(np.diff(y) > 0)
        assert np.all(y <= x + 1e-15)


class TestSrgbEncode:
    def test_fixed_point_zero(self):
        assert srgb_encode(0.0) == 0.0

    def test_linear_branch_inverse(self):
        # invert the linear branch by hand: 0.0031308 * 12.92
        assert srgb_encode(0.0031308) == pytest.approx(0.040449936, abs=1e-12)

    def test_round_trip_10k(self):
        rng = np.random.default_rng(123)
        x = rng.uniform(0, 1, 10_000)
        err = np.abs(srgb_encode(srgb_decode(x)) - x)
        assert err.max() < 1e-12

    def test_round_trip_near_breakpoint(self):
        x = np.linspace(0.0404, 0.0405, 1000)
        assert np.max(np.abs(srgb_encode(srgb_decode(x)) - x)) < 1e-12

    def test_domain_error(self):
        with pytest.raises(ValidationError,
                           match=r"^srgb_encode: input 1\.5 outside \[0, 1\]$"):
            srgb_encode(1.5)


class TestTripletForms:
    def test_componentwise_matches_scalar(self):
        t = np.array([0.25, 0.5, 0.75])
        expected = [srgb_decode(c) for c in t]
        assert srgb_decode3(t) == pytest.approx(expected, abs=1e-15)
        assert srgb_encode3(srgb_decode3(t)) == pytest.approx(t, abs=1e-12)

    def test_endpoints(self):
        assert np.array_equal(srgb_decode3(np.zeros(3)), np.zeros(3))
        assert np.array_equal(srgb_decode3(np.ones(3)), np.ones(3))

    def test_reports_offending_channel(self):
        with pytest.raises(ValidationError, match="channel g"):
            srgb_decode3(np.array([0.5, 1.5, 0.5]))

    def test_batch_shape(self):
        rng = np.random.default_rng(1)
        batch = rng.uniform(0, 1, (50, 3))
        out = srgb_decode3(batch)
        assert out.shape == (50, 3)


class TestQuantize8Bit:
    def test_endpoints(self):
        assert np.array_equal(quantize_8bit(np.zeros(3)), np.zeros(3))
        assert np.array_equal(quantize_8bit(np.ones(3)), np.ones(3))

    def test_tie_rounds_away_from_zero(self):
        # 0.5 * 255 = 127.5 -> 128
        out = quantize_8bit(np.array([0.5, 0.5, 0.5]))
        assert out == pytest.approx(np.full(3, 128 / 255), abs=0)

    def test_small_value(self):
        # 0.002 * 255 = 0.51 -> 1
        out = quantize_8bit(np.array([0.002, 0.002, 0.002]))
        assert out == pytest.approx(np.full(3, 1 / 255), abs=0)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        t = rng.uniform(0, 1, (500, 3))
        q = quantize_8bit(t)
        assert np.array_equal(quantize_8bit(q), q)

    def test_multiples_of_1_255(self):
        rng = np.random.default_rng(3)
        q = quantize_8bit(rng.uniform(0, 1, (200, 3))) * 255
        assert np.allclose(q, np.round(q), atol=1e-9)
