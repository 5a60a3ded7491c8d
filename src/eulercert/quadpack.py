"""QUADPACK's adaptive integrator ``dqagse`` (with ``dqk21``, ``dqpsrt`` and
``dqelg``), translated to Python.

21-point Gauss-Kronrod panels, bisection of the panel with the largest
error estimate, and Wynn's epsilon algorithm to extrapolate past endpoint
singularities (R. Piessens, E. de Doncker-Kapenga, C. W. Ueberhuber and
D. K. Kahaner, *QUADPACK*, Springer 1983; public domain).  The arithmetic
is QUADPACK's, one Python float operation at a time in the Fortran order,
with the machine constants of ``d1mach``, so a result, its error estimate
and its error code equal those of the compiled routine behind
``scipy.integrate.quad``.

The integrand takes a 1-D float array of abscissae and returns as many
values.  It is called once for the first panel (21 nodes) and once per
bisection (both halves' 42 nodes).
"""

from __future__ import annotations

import math
import sys
import warnings
from typing import NamedTuple

import numpy as np

__all__ = ["QuadpackWarning", "QagseResult", "qagse"]

EPMACH = sys.float_info.epsilon  # d1mach(4)
UFLOW = sys.float_info.min  # d1mach(1)
OFLOW = sys.float_info.max  # d1mach(2)

# dqk21's Kronrod abscissae xgk(1..11), Kronrod weights wgk(1..11) and the
# 10-point Gauss weights wg(1..5), which belong to xgk(2), xgk(4), ..., xgk(10)
XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
       0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
       0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
       0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
       0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
       0.0)
WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
       0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
       0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
       0.123491976262065851077600525478116, 0.134709217311473325928054001771707,
       0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
       0.149445554002916905664936468389821)
WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
      0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
      0.295524224714752870173892994651338)

# A panel's nodes: the centre, then a (centr - absc, centr + absc) pair per
# abscissa in dqk21's loop order, the Gauss abscissae j = 2, 4, ..., 10 first
_ORDER = (1, 3, 5, 7, 9, 0, 2, 4, 6, 8)  # 0-based xgk index of pair k
_NODES = tuple(XGK[j] for j in _ORDER)
_PAIR_WEIGHTS = tuple(WGK[j] for j in _ORDER)
# (wgk(j), pair of xgk(j)) for j = 1..10, the order of dqk21's resasc loop
_NATURAL = tuple((WGK[j], _ORDER.index(j)) for j in range(10))

MESSAGES = {
    1: "The maximum number of subdivisions ({limit}) has been achieved. If increasing "
       "the limit yields no improvement, analyze the integrand for the difficulty; if it "
       "sits at a known point, split the interval there.",
    2: "The occurrence of roundoff error is detected, which prevents the requested "
       "tolerance from being achieved. The error may be underestimated.",
    3: "Extremely bad integrand behavior occurs at some points of the integration interval.",
    4: "The algorithm does not converge. Roundoff error is detected in the extrapolation "
       "table. It is assumed that the requested tolerance cannot be achieved, and that the "
       "returned result is the best which can be obtained.",
    5: "The integral is probably divergent, or slowly convergent.",
}


class QuadpackWarning(RuntimeWarning):
    """``qagse`` returned a non-zero error code; the message is QUADPACK's."""


class QagseResult(NamedTuple):
    result: float
    abserr: float
    neval: int
    ier: int
    last: int  # number of subintervals


def _abscissae(a: float, b: float, out: list) -> float:
    """Append the 21 nodes of panel (a, b) to ``out``; return its half-length."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    out.append(centr)
    for x in _NODES:
        absc = hlgth * x
        out.append(centr - absc)
        out.append(centr + absc)
    return hlgth


def _evaluate(f, xs: list) -> list:
    x = np.array(xs)
    fv = np.asarray(f(x), dtype=float)
    if fv.shape != x.shape:
        raise ValueError(f"the integrand returned shape {fv.shape} for {len(xs)} abscissae")
    return fv.tolist()


def _qk21(fv: list, i: int, hlgth: float):
    """dqk21 on the 21 values fv[i:i + 21]: (result, abserr, resabs, resasc)."""
    fc = fv[i]
    lo, hi = fv[i + 1:i + 21:2], fv[i + 2:i + 21:2]
    resg = 0.0
    resk = WGK[10] * fc
    resabs = abs(resk)
    for wg, wgk, fval1, fval2 in zip(WG, _PAIR_WEIGHTS[:5], lo[:5], hi[:5]):
        fsum = fval1 + fval2
        resg = resg + wg * fsum
        resk = resk + wgk * fsum
        resabs = resabs + wgk * (abs(fval1) + abs(fval2))
    for wgk, fval1, fval2 in zip(_PAIR_WEIGHTS[5:], lo[5:], hi[5:]):
        fsum = fval1 + fval2
        resk = resk + wgk * fsum
        resabs = resabs + wgk * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = WGK[10] * abs(fc - reskh)
    for wgk, k in _NATURAL:
        resasc = resasc + wgk * (abs(lo[k] - reskh) + abs(hi[k] - reskh))
    dhlgth = abs(hlgth)
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        ratio = 200.0 * abserr / resasc
        # dmin1(1, ratio**1.5) without Python's OverflowError: pow is >= 1 iff ratio is
        abserr = resasc * (ratio ** 1.5 if ratio < 1.0 else 1.0)
    if resabs > UFLOW / (50.0 * EPMACH):
        abserr = max((EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(limit: int, last: int, maxerr: int, elist: list, iord: list, nrmax: int):
    """dqpsrt: keep iord(1..) descending in elist; (maxerr, errmax, nrmax)."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        if nrmax != 1:
            for _ in range(nrmax - 1):
                isucc = iord[nrmax - 1]
                if errmax <= elist[isucc]:
                    break
                iord[nrmax] = isucc
                nrmax -= 1
        jupbn = last
        if last > limit // 2 + 2:
            jupbn = limit + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):  # insert errmax top-down
            isucc = iord[i]
            if errmax >= elist[isucc]:
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
            i = None
        if i is not None:  # insert errmin bottom-up
            iord[i - 1] = maxerr
            k = jbnd
            for _ in range(i, jbnd + 1):
                isucc = iord[k]
                if errmin < elist[isucc]:
                    iord[k + 1] = last
                    break
                iord[k + 1] = isucc
                k -= 1
            else:
                iord[i] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n: int, epstab: list, res3la: list, nres: int):
    """dqelg, Wynn's epsilon algorithm on epstab(1..n): (n, result, abserr, nres)."""
    nres += 1
    abserr = OFLOW
    result = epstab[n]
    if n >= 3:
        limexp = 50
        epstab[n + 2] = epstab[n]
        newelm = (n - 1) // 2
        epstab[n] = OFLOW
        num = k1 = n
        for i in range(1, newelm + 1):
            k2, k3 = k1 - 1, k1 - 2
            res = epstab[k1 + 2]
            e0, e1, e2 = epstab[k3], epstab[k2], res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = max(abs(e2), e1abs) * EPMACH
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = max(e1abs, abs(e0)) * EPMACH
            if not (err2 > tol2 or err3 > tol3):
                # e0, e1 and e2 agree to machine accuracy: converged
                result = res
                abserr = err2 + err3
                return n, result, max(abserr, 5.0 * EPMACH * abs(result)), nres
            e3 = epstab[k1]
            epstab[k1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = max(e1abs, abs(e3)) * EPMACH
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1  # two elements are very close: omit part of the table
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            epsinf = abs(ss * e1)
            if not (epsinf > 1e-4):
                n = i + i - 1  # irregular behaviour in the table
                break
            res = e1 + 1.0 / ss
            epstab[k1] = res
            k1 -= 2
            error = err2 + abs(res - e2) + err3
            if error > abserr:
                continue
            abserr = error
            result = res
        # shift the table
        if n == limexp:
            n = 2 * (limexp // 2) - 1
        ib = 2 if num % 2 == 0 else 1
        for _ in range(newelm + 1):
            epstab[ib] = epstab[ib + 2]
            ib += 2
        if num != n:
            indx = num - n + 1
            for i in range(1, n + 1):
                epstab[i] = epstab[indx]
                indx += 1
        if nres < 4:
            res3la[nres] = result
            abserr = OFLOW
        else:
            abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
            res3la[1], res3la[2], res3la[3] = res3la[2], res3la[3], result
    return n, result, max(abserr, 5.0 * EPMACH * abs(result)), nres


def _ratio(x: float, y: float) -> float:
    """x / y as Fortran computes it: a zero divisor gives inf or NaN, no trap."""
    try:
        return x / y
    except ZeroDivisionError:
        return math.nan if x == 0.0 or x != x else math.copysign(math.inf, x) * math.copysign(1.0, y)


def qagse(f, a: float, b: float, *, epsabs: float = 1.49e-8, epsrel: float = 1.49e-8,
          limit: int = 50) -> QagseResult:
    """The integral of ``f`` over (a, b) to within max(epsabs, epsrel |I|).

    ``f`` maps a 1-D float array of abscissae to as many values.  Raises
    ValueError for invalid tolerances or limit (QUADPACK's ier = 6) and for
    an infinite endpoint; warns with QuadpackWarning, QUADPACK's message,
    when the error code is 1-5.
    """
    if epsabs <= 0.0 and epsrel < max(50.0 * EPMACH, 5e-29):
        raise ValueError("If 'epsabs'<=0, 'epsrel' must be greater than both 5e-29 "
                         "and 50*(machine epsilon).")
    if limit < 1:
        raise ValueError("Invalid 'limit' argument. There must be at least one subinterval")
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("qagse integrates over a finite interval")
    out = _qagse(f, a, b, epsabs, epsrel, limit)
    if out.ier:
        warnings.warn(MESSAGES[out.ier].format(limit=limit), QuadpackWarning, stacklevel=2)
    return out


def _qagse(f, a, b, epsabs, epsrel, limit) -> QagseResult:
    # 1-based work arrays, as in the Fortran
    alist, blist = [0.0] * (limit + 1), [0.0] * (limit + 1)
    rlist, elist = [0.0] * (limit + 1), [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    rlist2, res3la = [0.0] * 53, [0.0] * 4
    alist[1], blist[1] = a, b

    # first approximation to the integral
    ier = ierro = 0
    xs = []
    hlgth = _abscissae(a, b, xs)
    result, abserr, defabs, resabs = _qk21(_evaluate(f, xs), 0, hlgth)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    last = 1
    rlist[1], elist[1], iord[1] = result, abserr, 1
    if abserr <= 100.0 * EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return QagseResult(result, abserr, 42 * last - 21, ier, last)

    rlist2[1] = result
    errmax, maxerr = abserr, 1
    area, errsum = result, abserr
    abserr = OFLOW
    nrmax, nres, numrl2, ktmin = 1, 0, 2, 0
    extrap = noext = False
    iroff1 = iroff2 = iroff3 = 0
    ksgn = 1 if dres >= (1.0 - 50.0 * EPMACH) * defabs else -1
    small = erlarg = ertest = correc = 0.0  # unset in the Fortran until first used

    summed = False  # leaving the loop to label 115, which sums the list
    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        xs = []
        h1 = _abscissae(a1, b1, xs)
        h2 = _abscissae(a2, b2, xs)
        fv = _evaluate(f, xs)
        area1, error1, _, defab1 = _qk21(fv, 0, h1)
        area2, error2, _, defab2 = _qk21(fv, 21, h2)

        # improve previous approximations to integral and error, test accuracy
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12)
                    or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))

        # roundoff, the subdivision limit, bad behaviour at a point
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * EPMACH) * (abs(a2) + 1000.0 * UFLOW):
            ier = 4

        # append the newly-created intervals to the list
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            summed = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # is the interval to be bisected next the smallest one?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # the smallest interval has the largest error: before bisecting,
            # decrease erlarg over the larger intervals and extrapolate
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue
        # perform extrapolation
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if not (abseps >= abserr):
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        # prepare bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # set final result and error estimate (label 100)
    if not summed:
        if abserr == OFLOW:
            summed = True
        else:
            test_divergence = True
            if ier + ierro != 0:
                if ierro == 3:
                    abserr = abserr + correc
                if ier == 0:
                    ier = 3
                if result != 0.0 and area != 0.0:
                    summed = abserr / abs(result) > errsum / abs(area)
                elif abserr > errsum:
                    summed = True
                elif area == 0.0:
                    test_divergence = False
            if not summed and test_divergence and not (
                    ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
                q = _ratio(result, area)
                if 0.01 > q or q > 100.0 or errsum > abs(area):
                    ier = 6
    if summed:  # label 115: the global integral sum
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    if ier > 2:
        ier -= 1
    return QagseResult(result, abserr, 42 * last - 21, ier, last)
