"""Numerical tolerances shared across the package.

The inputs carry no natural scale (everything is unit-normalized), so a
single set of absolute tolerances is used everywhere.  It holds with about
three decades to spare: tests/test_thresholds.py draws states with each
degenerate quantity near its cutoff (b, c, sin(theta_a), |u| and |v| in
1e-15..1e-9, 1 + x0 = 2|q0|^2 in 1e-11..1e-7), and the worst round trip
over its 200 draws per zone is b 8.3e-13, c 3.9e-13, sin(theta_a) 5.0e-13,
|u| 8.3e-13, |v| 8.3e-13 and 1 + x0 2.0e-13, against EPS_NUM = 1e-9.  Only
alpha = beta = 0 exactly (the south pole) has no coordinates.
"""

# unit-norm and generic numerical agreement
EPS_UNIT = 1e-9
EPS_NUM = 1e-9

# hard-zero cutoffs (degenerate denominators, undefined azimuths)
EPS_ZERO = 1e-12

# inputs within this of unit norm are silently renormalized; beyond it they
# are rejected
NORM_INPUT_TOL = 1e-6
