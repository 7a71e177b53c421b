"""Real scalar arguments of the public entry points.

Whether an argument is a real scalar is decided in one place, by the
numbers tower: a ``numbers.Real`` that is not a bool.  So a numpy integer
or float is taken as the Python number of the same value, and a bool, a
string, ``None``, a ``Decimal``, a complex number or an array is refused
with one message form, ``<what> must be a real number, got <value>``.
"""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from anisowidth import (
    ExponentVector,
    PowerProduct,
    Tensor,
    TrigPoly,
    ValidationError,
    as_exponents,
    bernoulli_kernel,
    fejer_shift_sum_check,
    holder_interpolation_check,
    smoothness_vector,
    vp_multiplier,
    vp_power_kernel,
    weyl_derivative,
)

_T = TrigPoly((3,), np.arange(7) + 0.5j * np.arange(7)[::-1])
_X = np.linspace(0.1, 6.0, 9)
_TENSOR = Tensor((2, 2), [1.0, -2.0, 3.0, 0.5])

REFUSED = [True, np.bool_(False), "x", None, Decimal("1.5"), 1j, np.array(1.5)]

# entry point: (name in the refusal, call of one scalar, accepted int and float)
ENTRIES = {
    "exponent": ("exponent", lambda v: as_exponents((4, v)), (2, 1.5)),
    "smoothness entry": ("smoothness entry", lambda v: smoothness_vector((1, v)), (2, 1.5)),
    "Weyl order": ("Weyl order", lambda v: weyl_derivative(_T, 1, v, 0), (2, 1.5)),
    "Weyl phase": ("phase alpha", lambda v: weyl_derivative(_T, 1, 1, v), (2, 1.5)),
    "kernel r": ("kernel smoothness r", lambda v: vp_power_kernel(3, v, 0, _X), (2, 1.5)),
    "Bernoulli r": ("kernel smoothness r", lambda v: bernoulli_kernel(v, 1, _X, 16), (2, 1.5)),
    "scalar factor": ("scalar factor", lambda v: _T * v, (2, 1.5)),
    "shift step": ("shift step h", lambda v: fejer_shift_sum_check(1, v), (2, 1.5)),
    "taper order": ("taper order", lambda v: vp_multiplier(v, np.arange(-5, 6)), (2, 1.5)),
    "interpolation weight": (
        "interpolation weight",
        lambda v: holder_interpolation_check(_TENSOR, (4, 8), v),
        (1, 0.5),
    ),
    "PowerProduct coefficient": ("PowerProduct coefficient", lambda v: PowerProduct(v), (2, 1.5)),
    "PowerProduct exponent": (
        "PowerProduct exponent",
        lambda v: PowerProduct(3, [(2, v), (5, 1)]),
        (2, 1.5),
    ),
    "PowerProduct factor": ("PowerProduct coefficient", lambda v: PowerProduct(3) * v, (2, 1.5)),
    "PowerProduct comparison": ("PowerProduct coefficient", lambda v: PowerProduct(3) < v, (2, 1.5)),
    "PowerProduct power": (
        "PowerProduct power",
        lambda v: PowerProduct(1, [(2, Fraction(1, 3)), (5, 1)]) ** v,
        (2, 1.5),
    ),
}


def _bits(out):
    """Everything of a result that could tell two inputs apart: values,
    their types and the bytes of arrays."""
    if isinstance(out, TrigPoly):
        return (out.degree, out.coeff.dtype.str, out.coeff.tobytes())
    if isinstance(out, np.ndarray):
        return (out.dtype.str, out.shape, out.tobytes())
    if isinstance(out, PowerProduct):
        return repr((out.coeff, out.factors))
    return repr(out)


@pytest.mark.parametrize("entry", ENTRIES)
def test_real_scalars_have_one_rule(entry):
    what, call, (whole, fractional) = ENTRIES[entry]
    for value in REFUSED:
        if entry == "scalar factor" and type(value) is complex:
            continue  # a polynomial may be scaled by a complex number
        with pytest.raises(ValidationError, match=f"^{what} must be a real number, got "):
            call(value)
    assert _bits(call(np.int64(whole))) == _bits(call(whole))
    assert _bits(call(np.float32(fractional))) == _bits(call(fractional))


def test_numpy_integers_convert_before_exact_arithmetic():
    # A Fraction built on a numpy integer keeps numpy arithmetic and wraps
    # around at 2**63; the converted entry stays exact.
    (r,) = smoothness_vector((np.int64(3),))
    assert r * Fraction(2**62) == 3 * 2**62
    assert type(r.numerator) is int
    assert as_exponents((np.int64(3),)).recip[0] * 2**62 == Fraction(2**62, 3)
    # so does a Fraction whose parts are numpy integers
    (r,) = smoothness_vector((Fraction(np.int64(3)),))
    assert r * Fraction(2**62) == 3 * 2**62 and type(r.numerator) is int
    ((_, e),) = PowerProduct(1, [(2, Fraction(np.int64(3), np.int64(2)))]).factors
    assert e * 2**62 == Fraction(3 * 2**62, 2) and type(e.numerator) is int


def test_complex_scalar_factor_is_checked_part_by_part():
    assert _bits(_T * np.complex64(2j)) == _bits(_T * 2j)
    for value, message in [
        (np.array(2j), r"scalar factor must be a real number, got array\(0\.\+2\.j\)"),
        (complex(math.inf, 1), "scalar factor must be finite, got inf"),
        (complex(1, math.nan), "scalar factor must be finite, got nan"),
        # finite parts whose modulus overflows
        (complex(1e308, 1e308), "TrigPoly scalar product leaves the float range"),
    ]:
        with pytest.raises(ValidationError, match=f"^{message}$"):
            _T * value


def test_power_product_arithmetic_takes_the_intake_rule():
    assert PowerProduct(2) == 2.0 and PowerProduct(4) == np.int64(4)
    assert PowerProduct(2) != "x"
    assert _bits(PowerProduct(3) ** 2.0) == _bits(PowerProduct(3) ** 2) == _bits(PowerProduct(9))
    with pytest.raises(ValidationError, match="^PowerProduct coefficient must be a real number, got True$"):
        PowerProduct(2) == True  # noqa: E712
    with pytest.raises(ValidationError, match="^fractional power of a PowerProduct"):
        PowerProduct(3) ** 1.5
    # float arithmetic that leaves the float range is refused
    for call, message in [
        (lambda: PowerProduct(1e-200) * PowerProduct(1e-200), "coefficient 0.0 must be positive and finite"),
        (lambda: PowerProduct(1, [(2, 1e300)]) ** 1e300, "exponent must be finite, got inf"),
        (lambda: PowerProduct(math.inf), "coefficient inf must be positive and finite"),
    ]:
        with pytest.raises(ValidationError, match=f"^PowerProduct {message}$"):
            call()


def test_power_product_intake():
    for args, message in [
        (("x",), "PowerProduct coefficient must be a real number, got 'x'"),
        ((None,), "PowerProduct coefficient must be a real number, got None"),
        ((True,), "PowerProduct coefficient must be a real number, got True"),
        ((1, 5), "PowerProduct factors must be a sequence, got int"),
        ((1, [5]), "PowerProduct factor must be a sequence, got int"),
        ((1, [(2, 1, 1)]), r"PowerProduct factor must be a \(base, exponent\) pair, got \(2, 1, 1\)"),
        ((1, [(2, "x")]), "PowerProduct exponent must be a real number, got 'x'"),
        ((1, [(2, math.nan)]), "PowerProduct exponent must be finite, got nan"),
        ((1, [(2, -math.inf)]), "PowerProduct exponent must be finite, got -inf"),
    ]:
        with pytest.raises(ValidationError, match=f"^{message}$"):
            PowerProduct(*args)
    # finiteness is decided by comparison: float() of this exponent overflows
    huge = PowerProduct(1, [(2, Fraction(10**400))])
    assert huge.factors == ((2, Fraction(10**400)),) and huge.is_exact
    assert PowerProduct(1, iter([(2, 1), (2, Fraction(1, 2))])).factors == ((2, Fraction(3, 2)),)


def test_exponent_vector_intake():
    for recip, message in [
        (("x",), "reciprocal exponent must be a real number, got 'x'"),
        ((True,), "reciprocal exponent must be a real number, got True"),
        (5, "reciprocal exponents must be a sequence, got int"),
        ((), "exponent vector must have at least one axis"),
    ]:
        with pytest.raises(ValidationError, match=f"^{message}$"):
            ExponentVector(recip)
    v = ExponentVector([np.int64(1), np.float64(0.5), Fraction(1, 3)])
    assert v.recip == (Fraction(1), 0.5, Fraction(1, 3))
    assert [type(r) for r in v.recip] == [Fraction, float, Fraction]
    assert v == ExponentVector((1, 0.5, Fraction(1, 3)))


OVERFLOWS = {
    "TrigPoly sum": lambda big: big + big,
    "TrigPoly difference": lambda big: big - (-1.0 * big),
    "TrigPoly scalar product": lambda big: big * 1e300,
    "complex scalar product": lambda big: 1e300j * big,
}


@pytest.mark.parametrize("operation", OVERFLOWS)
def test_trig_arithmetic_refuses_overflow(operation):
    # Refused as the operation leaving the float range, without a numpy
    # overflow warning first (warnings are errors in this suite).
    what = "TrigPoly scalar product" if "scalar" in operation else operation
    with pytest.raises(ValidationError, match=f"^{what} leaves the float range$"):
        OVERFLOWS[operation](TrigPoly((0,), [1.7e308]))


def test_coefficient_dict_must_be_a_mapping():
    for entries in ([1, 2], None, ((1, 2.0),)):
        with pytest.raises(ValidationError, match="^entries must be a Mapping, got "):
            TrigPoly.from_coeff_dict((1,), entries)
    assert TrigPoly.from_coeff_dict((1,), {1: 2.0}).c(1) == 2.0
