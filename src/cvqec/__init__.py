"""Verification toolkit for rotation-symmetric and comb-based bosonic codes.

Exact rational-of-pi phase arithmetic where the math is exact, explicit
tolerances where truncation makes it approximate.
"""

__version__ = "0.1.0"
