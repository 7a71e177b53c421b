"""Width-order exponents of anisotropic smoothness classes and balls.

The package has three layers:

* exact combinatorics of exponent vectors and the width-order formulas
  (:mod:`anisowidth.mixed_norm`, :mod:`anisowidth.exponents`,
  :mod:`anisowidth.ball_widths`),
* a desk-scale numerical oracle for subspace widths of finite point sets
  (:mod:`anisowidth.width_oracle`),
* periodic approximation machinery for the function-class side
  (:mod:`anisowidth.trig_approx`).

Each module lists its public names once, in its ``__all__``; the package
exports exactly their concatenation.
"""

from .mixed_norm import *

# The package name ``mixed_norm`` is the function, so its module's list is
# imported by its own name.
from .mixed_norm import __all__ as _mixed_norm_all
from .exponents import *
from .ball_widths import *
from .width_oracle import *
from .trig_approx import *
from . import ball_widths, exponents, trig_approx, width_oracle

__version__ = "0.1.0"

__all__ = (
    _mixed_norm_all
    + exponents.__all__
    + ball_widths.__all__
    + width_oracle.__all__
    + trig_approx.__all__
)
