"""Write the generalized Gaussian radial rules of ``bdies2d.gauss_log_rules``.

For each q the rule has q nodes in (0, 1) and positive weights and
integrates the 2q functions x^k and x^(k+1) log x, k < q, exactly on
[0, 1] (Ma, Rokhlin & Wandzura, SIAM J. Numer. Anal. 33, 1996).  It is
built by node elimination (Bremer, Gimbutas & Rokhlin, SIAM J. Sci.
Comput. 32, 2010), numpy only:

1. Start from the (2q + 4)-point rule of Gauss-Legendre points under
   x = t^4, which integrates the 2q functions to 3e-15 (q = 10) to 2e-13
   (q = 4).
2. Take the node of least significance w_i sum_j f_j(x_i)^2 away and
   restore the moments by damped Gauss-Newton steps in (log x, log w),
   which keep nodes and weights positive; a step that would move a node
   past 1 is shortened.  If the moments are not restored, put the node
   back and try the next least significant one.
3. Repeat until q nodes are left, then polish the square system by
   Newton's method in extended precision (``polish``).  From 2q points
   q = 10 lands where float64 Newton stalls and extended Newton diverges;
   from 2q + 4 every q from 4 to 10 converges.

The functions are taken in a Legendre form (``basis``) whose moments are
exact rationals (``moments``); the x^k and x^(k+1) log x moments are
convex combinations of them, so their defects are no larger.
The script refuses to write a table whose moment defect exceeds ``TOL``::

    python tools/gauss_log_rules.py [--out src/bdies2d/gauss_log_rules.py]
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
from numpy.polynomial import legendre

OUT = (Path(__file__).resolve().parent.parent / "src" / "bdies2d"
       / "gauss_log_rules.py")
ORDERS = range(4, 11)
#: Largest moment defect a written table may have, and the defect an
#: elimination must restore the moments to for its rule to be kept: on the
#: way down, a rule that stalls just above rounding is still a good start.
TOL = 5e-15
STEP_TOL = 1e-12


def moments(q: int, dtype=np.float64) -> np.ndarray:
    """Exact integrals over [0, 1] of the 2q basis functions of ``basis``,
    from the shifted Legendre coefficients in rational arithmetic, rounded
    to ``dtype``."""
    out = np.zeros(2 * q, dtype=dtype)
    out[0] = 1
    for j in range(q):
        # P_j(2x - 1) = sum_k (-1)^(j+k) C(j, k) C(j+k, k) x^k
        m = sum(Fraction((-1) ** (j + k) * comb(j, k) * comb(j + k, k),
                         -(k + 2) ** 2) for k in range(j + 1))
        out[q + j] = dtype(m.numerator) / dtype(m.denominator)
    return out


def basis(x: np.ndarray, q: int):
    """Basis functions of the span and their derivatives at x, each (2q,
    len(x)): P_j(2x - 1) and x log x P_j(2x - 1), j < q, which span the
    same functions as x^k and x^(k+1) log x, k < q.  The Jacobians are
    about as ill conditioned as the monomials' (4e13 against 5e13 at the
    q = 10 rule), but in this form the eliminations end where ``polish``
    converges for every q; with the monomials q = 10 ends 5.5e-14 off."""
    s = 2.0 * x - 1.0
    p = legendre.legvander(s, q - 1).T
    # column j of legder(I) holds the Legendre coefficients of P_j'
    dp = 2.0 * (legendre.legvander(s, q - 2)
                @ legendre.legder(np.eye(q), axis=0)).T
    xl = x * np.log(x)
    f = np.vstack([p, xl * p])
    df = np.vstack([dp, (np.log(x) + 1.0) * p + xl * dp])
    return f, df


def gauss_newton(x, w, q, iters=300):
    """Restore the 2q moments from nodes x and weights w, to a defect of
    TOL / 4 if it can; returns the rule and its largest moment defect."""
    mu = moments(q)
    u, v = np.log(x), np.log(w)
    res = basis(x, q)[0] @ w - mu
    for _ in range(iters):
        if np.abs(res).max() <= TOL / 4:
            break
        f, df = basis(np.exp(u), q)
        jac = np.hstack([df * np.exp(u + v), f * np.exp(v)])
        step = np.linalg.lstsq(jac, -res, rcond=None)[0]
        m = len(u)
        # shorten the step until nodes stay below 1 and the residual falls
        for lam in 0.5 ** np.arange(30):
            un, vn = u + lam * step[:m], v + lam * step[m:]
            if un.max() >= 0.0 or vn.max() > 1.0:
                continue
            rn = basis(np.exp(un), q)[0] @ np.exp(vn) - mu
            if np.linalg.norm(rn) < np.linalg.norm(res):
                u, v, res = un, vn, rn
                break
        else:
            break
    order = np.argsort(u)
    return np.exp(u[order]), np.exp(v[order]), float(np.abs(res).max())


def build(q: int):
    """The q-point rule by node elimination from the (2q + 4)-point x^4
    rule, then ``polish``."""
    t, wt = np.polynomial.legendre.leggauss(2 * q + 4)
    t, wt = 0.5 * (t + 1.0), 0.5 * wt
    x, w = t ** 4, 4 * t ** 3 * wt
    while len(x) > q:
        f, _ = basis(x, q)
        for i in np.argsort(w * (f * f).sum(0)):
            keep = np.arange(len(x)) != i
            xn, wn, err = gauss_newton(x[keep], w[keep], q)
            if err <= STEP_TOL:
                x, w = xn, wn
                break
        else:
            raise RuntimeError(f"q = {q}: no node can be taken away at "
                               f"{len(x)} nodes")
    x, w, err = polish(x, w, q)
    if err > TOL:
        raise RuntimeError(f"q = {q}: moment defect {err:.1e} > {TOL:.0e}")
    return x, w, err


def _solve(a, b):
    """Gaussian elimination with partial pivoting, in a's precision (numpy's
    LAPACK solvers take float64 only)."""
    a, b = a.copy(), b.copy()
    n = len(b)
    for i in range(n):
        p = i + int(np.abs(a[i:, i]).argmax())
        a[[i, p]], b[[i, p]] = a[[p, i]], b[[p, i]]
        f = a[i + 1:, i] / a[i, i]
        a[i + 1:] -= f[:, None] * a[i]
        b[i + 1:] -= f * b[i]
    z = np.zeros_like(b)
    for i in range(n - 1, -1, -1):
        z[i] = (b[i] - a[i, i + 1:] @ z[i + 1:]) / a[i, i]
    return z


def polish(x, w, q, iters=10):
    """Newton's method on the square system in extended precision.

    At q = 10 the Jacobian's condition number is about 4e13 at the rule,
    so in float64 rules whose nodes differ by 2e-2 all meet the moments to
    1e-14, which one depending on the start; with a 64-bit mantissa full
    Newton steps converge to the one rule that meets them exactly (its
    first step may raise the defect, so no step is shortened).  Returns
    the iterate with the least defect, rounded to float64, and its defect
    in float64."""
    ld = np.longdouble
    mu = moments(q, ld)
    x, w = x.astype(ld), w.astype(ld)
    best = (np.inf, x, w)
    for _ in range(iters):
        f, df = basis(x, q)
        res = f @ w - mu
        if 0 < x.min() and x.max() < 1 and w.min() > 0:
            best = min(best, (np.abs(res).max(), x, w), key=lambda b: b[0])
        step = _solve(np.hstack([df * w, f]), -res)
        x, w = x + step[:q], w + step[q:]
    x, w = best[1].astype(np.float64), best[2].astype(np.float64)
    return x, w, float(np.abs(basis(x, q)[0] @ w - moments(q)).max())


def _column(values) -> str:
    """Three values a line, each as repr prints it, which reads back
    bitwise."""
    text = [repr(float(v)) for v in values]
    return "".join("\n        " + ", ".join(text[i:i + 3]) + ","
                   for i in range(0, len(text), 3))


def render(rules: dict) -> str:
    lines = ['"""Generalized Gaussian radial rules on [0, 1]: for each q, q '
             'nodes and\npositive weights that integrate x^k and x^(k+1) '
             'log x, k < q, exactly.\n\nWritten by '
             '``tools/gauss_log_rules.py``; do not edit by hand.\n"""\n',
             "GAUSS_LOG_RULES = {"]
    for q, (x, w) in rules.items():
        lines.append(f"    {q}: (({_column(x)}\n    ), ({_column(w)}\n    )),")
    lines.append("}\n")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, default=OUT)
    args = ap.parse_args(argv)
    rules = {}
    for q in ORDERS:
        x, w, err = build(q)
        print(f"q = {q:2d}: moment defect {err:.1e}, nodes "
              f"[{x[0]:.2e}, {x[-1]:.6f}]", file=sys.stderr)
        rules[q] = (x, w)
    args.out.write_text(render(rules))
    return 0


if __name__ == "__main__":
    sys.exit(main())
