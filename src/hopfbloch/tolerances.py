"""Numerical tolerances shared across the package.

The inputs carry no natural scale (everything is unit-normalized), so a
single set of absolute tolerances is used everywhere.  It holds with about
three decades to spare: tests/test_thresholds.py draws states with each
degenerate quantity near its cutoff (b, c, sin(theta_a), |u| and |v| in
1e-15..1e-9, 1 + x0 in 1e-11..1e-7), and the worst extract -> reconstruct
round trip over its 200 draws per zone (south-pole draws have none) is
b 5.6e-13, c 7.8e-13, sin(theta_a) 5.0e-13, |u| 5.9e-13, |v| 8.9e-13 and
1 + x0 9.5e-16, against EPS_NUM = 1e-9.
"""

# unit-norm and generic numerical agreement
EPS_UNIT = 1e-9
EPS_NUM = 1e-9

# hard-zero cutoffs (degenerate denominators, undefined azimuths)
EPS_ZERO = 1e-12

# exclusion band around 1 + x0 = 0 (the |1>_A (x) |psi_B> family)
EPS_DEGENERATE = 1e-9

# inputs within this of unit norm are silently renormalized; beyond it they
# are rejected
NORM_INPUT_TOL = 1e-6
