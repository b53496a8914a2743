"""Write the Matern profile reference table that the tests read.

Usage: ``python3 tools/matern_reference.py``; it writes
``tests/matern_reference.csv``.

Evaluates kappa(x) = 2^(1 - nu) / Gamma(nu) x^nu K_nu(x) with mpmath 1.3.0
at 40 significant digits, over the Matern orders below (the accepted range
runs from 1e-50 to 25) and x = geomspace(1e-100, 1e-10, 10) followed by
geomspace(1e-9, 1e3, 25): below x = 1e-10 the profile is a series, above it
the Bessel function.  Each row holds nu and x as
Python float reprs, which mpmath takes exactly, and kappa to 20 significant
digits.  Values far below the float range are written as they are; a
reader that parses them as floats gets 0.
"""

import sys
from pathlib import Path

import mpmath
import numpy as np

ORDERS = (1e-50, 1e-05, 0.01, 0.1, 0.3, 0.77, 1.29, 3.3, 7.5, 10.0, 17.2,
          24.9, 25.0)
ARGUMENTS = np.concatenate([np.geomspace(1e-100, 1e-10, 10),
                            np.geomspace(1e-9, 1e3, 25)])
DIGITS = 40

OUT = Path(__file__).resolve().parents[1] / "tests" / "matern_reference.csv"


def matern(nu, x):
    nu, x = mpmath.mpf(nu), mpmath.mpf(x)
    return (mpmath.mpf(2) ** (1 - nu) / mpmath.gamma(nu) * x ** nu
            * mpmath.besselk(nu, x))


def main():
    mpmath.mp.dps = DIGITS
    lines = ["nu,x,kappa"]
    for nu in ORDERS:
        for x in ARGUMENTS:
            value = mpmath.nstr(matern(nu, float(x)), 20, min_fixed=1,
                                max_fixed=0)
            lines.append(f"{nu!r},{float(x)!r},{value}")
    OUT.write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
