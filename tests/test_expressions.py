import math
import warnings

import numpy as np
import pytest

from hilferbvp.errors import ExpressionError
from hilferbvp.expressions import parse_expression


class TestParsing:
    @pytest.mark.parametrize("text,t,y,expected", [
        ("1", 0.5, 0.0, 1.0),
        ("t", 0.3, 0.0, 0.3),
        ("y", 0.3, 2.5, 2.5),
        ("(y+1)/4", 0.1, 3.0, 1.0),
        ("2*t + y", 0.25, 1.0, 1.5),
        ("t^2", 3.0, 0.0, 9.0),
        ("2^3^2", 0.0, 0.0, 512.0),          # right associative
        ("-t + 1", 0.25, 0.0, 0.75),
        ("-t^2", 2.0, 0.0, -4.0),             # minus binds after the power
        ("exp(0)", 0.0, 0.0, 1.0),
        ("sin(0) + cos(0)", 0.0, 0.0, 1.0),
        ("1.5e-1 * 10", 0.0, 0.0, 1.5),
        ("y/(1+y)", 0.0, 1.0, 0.5),
        ("exp(-t)*y + 0.5", 0.0, 1.0, 1.5),
    ])
    def test_values(self, text, t, y, expected):
        fn = parse_expression(text)
        assert fn(t, y) == pytest.approx(expected, rel=1e-14)

    def test_precedence(self):
        fn = parse_expression("1 + 2*3^2")
        assert fn(0.0, 0.0) == 19.0

    @pytest.mark.parametrize("bad", [
        "", "   ", "1 +", "(1", "foo(1)", "t y", "1..2", "z", "2 ** 3", "!t",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ExpressionError):
            parse_expression(bad)


class TestLanguageBoundary:
    """Forms at the edge of the language, parsed and evaluated with warnings
    as errors; each value equals the numpy expression it denotes bit for
    bit, on arrays and on scalars."""

    T = np.array([0.0, 0.5, -2.0, 3.0])
    Y = np.array([1.0, -0.0, 2.5, -4.0])

    @pytest.mark.parametrize("text,expected", [
        ("007", lambda t, y: 7.0),
        ("1.", lambda t, y: 1.0),
        (".5", lambda t, y: 0.5),
        ("1e400", lambda t, y: np.inf),
        ("2--3", lambda t, y: np.subtract(2.0, -3.0)),
        ("--t", lambda t, y: -(-t)),
        ("2*-3", lambda t, y: np.multiply(2.0, -3.0)),
        ("2^-1^2", lambda t, y: np.power(2.0, -np.power(1.0, 2.0))),
        ("t\t+\n1", lambda t, y: np.add(t, 1.0)),
    ])
    def test_accepted(self, text, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fn = parse_expression(text)
            for t, y in [(self.T, self.Y), *zip(self.T.tolist(), self.Y.tolist())]:
                got = np.asarray(fn(t, y))
                want = np.asarray(expected(t, y), dtype=float)
                assert (got.dtype, got.shape, got.tobytes()) == (
                    want.dtype, want.shape, want.tobytes())

    @pytest.mark.parametrize("bad", [
        "+t", "2 ** 3", "1_0", "0x10", "t2", "inf", "exp", "sin(1, 2)", "sin(t)(y)",
        "2(3)", "t # y",
    ])
    def test_rejected(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ExpressionError):
                parse_expression(bad)


class TestTotality:
    def test_division_by_zero_is_nan(self):
        fn = parse_expression("1/t")
        assert math.isnan(fn(0.0, 0.0))
        assert fn(0.5, 0.0) == 2.0

    def test_fractional_power_of_negative_is_nan(self):
        fn = parse_expression("(t - 1)^0.5")
        assert math.isnan(fn(0.5, 0.0))
        assert fn(1.0, 0.0) == 0.0

    def test_overflow_is_nan(self):
        fn = parse_expression("exp(y)")
        assert math.isnan(fn(0.0, 1e9))
        fn = parse_expression("10^y")
        assert math.isnan(fn(0.0, 1e9))

    def test_nan_propagates_quietly(self):
        fn = parse_expression("1/t + y")
        assert math.isnan(fn(0.0, 1.0))

    @pytest.mark.parametrize("text,t,y,bad", [
        ("1/t", [0.0, 0.5, -0.0, 2.0], 0.0, [True, False, True, False]),
        ("(t - 1)^0.5", [0.5, 1.0, 2.0, -3.0], 0.0, [True, False, False, True]),
        ("exp(y)", 0.0, [1e9, 0.0, 1.5, 710.0, -1e9], [True, False, False, True, False]),
        ("10^y", 0.0, [1e9, 2.0, 308.0, 309.0, -1e9], [True, False, False, True, False]),
        ("1/t + y", [0.0, 0.5, 0.0, 0.25], [1.0, 1.0, -2.0, 3.0],
         [True, False, True, False]),
        ("sin(y) + cos(y)", 0.0, [math.inf, 0.5, -math.inf], [True, False, True]),
    ])
    def test_arrays_nan_exactly_at_bad_entries(self, text, t, y, bad):
        fn = parse_expression(text)
        t, y = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(y, dtype=float))
        values = fn(t, y)
        scalar = np.array([fn(float(a), float(b)) for a, b in zip(t, y)])
        assert np.array_equal(np.isnan(values), bad)
        assert np.array_equal(np.isnan(scalar), bad)
        good = ~np.array(bad)
        np.testing.assert_allclose(values[good], scalar[good], rtol=1e-15)
