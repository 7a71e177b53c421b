"""Powell's conjugate-direction method without derivatives (Powell 1964),
with Brent's line search (Brent 1973): the one path of SciPy's
``minimize(method="Powell")`` that the width oracle's polish runs.

That path has no bounds and starts from the identity directions, and its
``maxiter`` leaves the number of function calls unbounded.  Every operation
is SciPy's, in SciPy's order and on the same operands, so ``powell(fun, x0,
xtol, ftol, maxiter)`` returns the bits of ``res.fun`` and ``res.x`` of
``minimize(fun, x0, method="Powell", options={"xtol": xtol, "ftol": ftol,
"maxiter": maxiter})``.  The line search brackets the minimum from the steps
0 and 1; when no bracket is found it takes the least of the three points
reached, as SciPy's recovery from a bracket error does.

Ported from ``scipy/optimize/_optimize.py`` (SciPy 1.17), which carries
these notices:

    optimize.py module by Travis E. Oliphant

    You may copy and use this module as you see fit with no guarantee
    implied provided you keep this notice in all copies.

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

    1. Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

    2. Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

    3. Neither the name of the copyright holder nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import numpy as np

_GOLD = 1.618034  # the bracket's growth factor, (1 + sqrt(5)) / 2
_GROW_LIMIT = 110.0
_VERY_SMALL = 1e-21
_BRACKET_MAXITER = 1000
_CG = 0.3819660  # Brent's golden-section fraction, (3 - sqrt(5)) / 2
_MINTOL = 1.0e-11
_BRENT_MAXITER = 500


def powell(fun, x0, xtol, ftol, maxiter):
    """Minimise ``fun`` from ``x0``: ``(value, x)``, as SciPy's Powell."""
    x = np.asarray(x0, dtype=float).flatten()
    N = len(x)
    direc = np.eye(N, dtype=float)
    tol = xtol * 100  # the line searches' tolerance
    fval = fun(x)
    x1 = x
    it = 0
    while True:
        fx = fval
        bigind = 0
        delta = 0.0
        for i in range(N):
            fx2 = fval
            fval, x, _ = _line_search(fun, x, direc[i], tol, fval)
            if (fx2 - fval) > delta:
                delta = fx2 - fval
                bigind = i
        it += 1
        bnd = ftol * (np.abs(fx) + np.abs(fval)) + 1e-20
        if 2.0 * (fx - fval) <= bnd or it >= maxiter or (np.isnan(fx) and np.isnan(fval)):
            break
        # The extrapolated point; SciPy's unbounded step factor min(1, 1)
        # multiplies by 1, which keeps every bit.
        direc1 = x - x1
        x1 = x
        fx2 = fun(x + direc1)
        if fx > fx2:
            t = 2.0 * (fx + fx2 - 2.0 * fval)
            temp = fx - fval - delta
            t *= temp * temp
            temp = fx - fx2
            t -= delta * temp * temp
            if t < 0.0:
                fval, x, direc1 = _line_search(fun, x, direc1, tol, fval)
                if np.any(direc1):
                    direc[bigind] = direc[-1]
                    direc[-1] = direc1
    return fval, x


def _line_search(fun, p, xi, tol, fval):
    """The minimum of ``fun`` along ``p + alpha * xi``: ``(value, point, step)``."""
    if not np.any(xi):
        return fval, p, xi
    alpha, fret = _brent(lambda alpha: fun(p + alpha * xi), tol)
    xi = alpha * xi
    return fret, p + xi, xi


def _brent(func, tol):
    """Brent's minimisation of ``func`` inside the bracket grown from 0 and
    1: ``(x, func(x))``; with no bracket, the least of its three points."""
    xa, xb, xc, fa, fb, fc = _bracket(func)
    if not (
        ((fb < fc and fb <= fa) or (fb < fa and fb <= fc))
        and (xa < xb < xc or xc < xb < xa)
        and (np.isfinite(xa) and np.isfinite(xb) and np.isfinite(xc))
    ):
        xs, fs = [xa, xb, xc], [fa, fb, fc]
        if np.any(np.isnan([xs, fs])):
            return np.nan, np.nan
        imin = np.argmin(fs)
        return xs[imin], fs[imin]

    x = w = v = xb
    fw = fv = fx = fb
    if xa < xc:
        a = xa
        b = xc
    else:
        a = xc
        b = xa
    deltax = 0.0
    it = 0
    while it < _BRENT_MAXITER:
        tol1 = tol * np.abs(x) + _MINTOL
        tol2 = 2.0 * tol1
        xmid = 0.5 * (a + b)
        if np.abs(x - xmid) < (tol2 - 0.5 * (b - a)):
            break
        if np.abs(deltax) <= tol1:
            if x >= xmid:
                deltax = a - x  # a golden-section step
            else:
                deltax = b - x
            rat = _CG * deltax
        else:  # a parabolic step
            tmp1 = (x - w) * (fx - fv)
            tmp2 = (x - v) * (fx - fw)
            p = (x - v) * tmp2 - (x - w) * tmp1
            tmp2 = 2.0 * (tmp2 - tmp1)
            if tmp2 > 0.0:
                p = -p
            tmp2 = np.abs(tmp2)
            dx_temp = deltax
            deltax = rat
            if (
                (p > tmp2 * (a - x))
                and (p < tmp2 * (b - x))
                and (np.abs(p) < np.abs(0.5 * tmp2 * dx_temp))
            ):
                rat = p * 1.0 / tmp2
                u = x + rat
                if (u - a) < tol2 or (b - u) < tol2:
                    if xmid - x >= 0:
                        rat = tol1
                    else:
                        rat = -tol1
            else:
                if x >= xmid:
                    deltax = a - x
                else:
                    deltax = b - x
                rat = _CG * deltax

        if np.abs(rat) < tol1:  # a step of at least tol1
            if rat >= 0:
                u = x + tol1
            else:
                u = x - tol1
        else:
            u = x + rat
        fu = func(u)

        if fu > fx:
            if u < x:
                a = u
            else:
                b = u
            if (fu <= fw) or (w == x):
                v = w
                w = u
                fv = fw
                fw = fu
            elif (fu <= fv) or (v == x) or (v == w):
                v = u
                fv = fu
        else:
            if u >= x:
                a = x
            else:
                b = x
            v = w
            w = x
            x = u
            fv = fw
            fw = fx
            fx = fu
        it += 1
    return x, fx


def _bracket(func):
    """Three steps from 0 and 1, downhill, that should bracket a minimum of
    ``func``, and their values; the caller checks that they do."""
    xa, xb = np.asarray([0.0, 1.0])
    fa = func(xa)
    fb = func(xb)
    if fa < fb:  # switch so that fa > fb
        xa, xb = xb, xa
        fa, fb = fb, fa
    xc = xb + _GOLD * (xb - xa)
    fc = func(xc)
    it = 0
    while fc < fb:
        tmp1 = (xb - xa) * (fb - fc)
        tmp2 = (xb - xc) * (fb - fa)
        val = tmp2 - tmp1
        if np.abs(val) < _VERY_SMALL:
            denom = 2.0 * _VERY_SMALL
        else:
            denom = 2.0 * val
        w = xb - ((xb - xc) * tmp2 - (xb - xa) * tmp1) / denom
        wlim = xb + _GROW_LIMIT * (xc - xb)
        if it > _BRACKET_MAXITER:
            raise RuntimeError("no valid bracket was found before the iteration limit")
        it += 1
        if (w - xc) * (xb - w) > 0.0:
            fw = func(w)
            if fw < fc:
                xa = xb
                xb = w
                fa = fb
                fb = fw
                break
            elif fw > fb:
                xc = w
                fc = fw
                break
            w = xc + _GOLD * (xc - xb)
            fw = func(w)
        elif (w - wlim) * (wlim - xc) >= 0.0:
            w = wlim
            fw = func(w)
        elif (w - wlim) * (xc - w) > 0.0:
            fw = func(w)
            if fw < fc:
                xb = xc
                xc = w
                w = xc + _GOLD * (xc - xb)
                fb = fc
                fc = fw
                fw = func(w)
        else:
            w = xc + _GOLD * (xc - xb)
            fw = func(w)
        xa = xb
        xb = xc
        xc = w
        fa = fb
        fb = fc
        fc = fw
    return xa, xb, xc, fa, fb, fc
