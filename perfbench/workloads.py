"""Seeded job configs for the three benchmark workloads.

A workload is an infinite, deterministic sequence of smfconv job configs:
``job_config(workload, seed, index)`` depends only on its arguments, so the
same seed always yields byte-identical config files.  The program under
test only ever sees the written JSON files.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

WORKLOADS = ("engines_r10", "checks_r8", "density_f10")

NAMED_SHAPES = {
    "square": ("1,1", "1,2", "2,1", "2,2"),
    "diagonal": ("1,1", "2,2"),
    "lower_triangular": ("1,1", "2,1", "2,2"),
    "upper_anti_triangular": ("1,1", "1,2", "2,1"),
    "column": ("1,1", "2,1"),
}
SHAPE_CYCLE = tuple(NAMED_SHAPES)

# Cumulant r(k) is n/DENOMINATORS[k-1] with n coprime to the denominator,
# so every seed has the same denominator structure and Fraction arithmetic
# costs about the same whatever the numerators are.
DENOMINATORS = (2, 3, 4, 5)
NUMERATORS = (-3, -2, -1, 1, 2, 3)

DENSITY_POINTS = 2001
DENSITY_EPS = 1e-3


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random("%s/%d/%d" % (workload, seed, index))


def _small_rational_cumulants(rng: random.Random) -> list:
    out = []
    for den in DENOMINATORS:
        num = rng.choice([n for n in NUMERATORS
                          if Fraction(n, den).denominator == den])
        out.append("%d/%d" % (num, den))
    return out


def _engines_r10(rng: random.Random, index: int) -> dict:
    shape = SHAPE_CYCLE[index % len(SHAPE_CYCLE)]
    return {
        "version": 1,
        "shape": shape,
        "cells": {key: _small_rational_cumulants(rng)
                  for key in NAMED_SHAPES[shape]},
        "order": 10,
        "engines": ["partition", "fock", "analytic"],
        "precision": "rational",
        "checks": [],
    }


def _checks_r8(rng: random.Random, index: int) -> dict:
    return {
        "version": 1,
        "shape": "square",
        "cells": {key: _small_rational_cumulants(rng)
                  for key in NAMED_SHAPES["square"]},
        "order": 8,
        "engines": ["fock", "analytic"],
        "precision": "rational",
        "checks": ["axioms", "eq56", "eq611", "uniqueness"],
    }


# Square non-Meixner arrays (a11, a22, b12, b21): semicircle diagonals
# with unequal rates in [0.6, 1.4] and point-mass off-diagonals with
# unequal shifts of opposite sign, 0.15 <= |b| <= 0.45.  These are the
# first 24 draws from that family; each passed the 2001-point quadrature
# check of verify.py with its mass within 5e-4 of 1.  The family is not
# used directly: about one draw in 120 has an inverse-square-root edge
# whose eps-wide peak the grid undersamples, so the trapezoid mass is 2%
# off although the density values are right.  Equal-sign shifts are left
# out because the convolution can then carry atoms, which the density
# path does not report: masses of 0.906, 0.967 and 1.260 were measured.
DENSITY_ARRAYS = (
    (0.672, 0.904, -0.329, 0.271), (1.017, 0.739, -0.296, 0.283),
    (0.93, 0.726, -0.362, 0.255), (1.252, 0.862, 0.351, -0.236),
    (1.024, 0.801, -0.198, 0.272), (0.629, 0.881, -0.339, 0.438),
    (0.983, 1.348, 0.182, -0.214), (1.15, 0.89, 0.189, -0.218),
    (1.18, 0.979, 0.306, -0.355), (0.653, 1.011, 0.186, -0.331),
    (1.108, 0.752, -0.417, 0.221), (1.039, 0.754, -0.434, 0.384),
    (0.614, 0.893, 0.44, -0.237), (1.0, 1.37, -0.226, 0.37),
    (1.126, 0.77, 0.286, -0.379), (0.941, 1.237, -0.228, 0.414),
    (1.171, 0.912, -0.355, 0.341), (0.62, 0.833, 0.172, -0.412),
    (0.88, 1.09, -0.388, 0.186), (0.61, 0.838, -0.234, 0.223),
    (0.777, 1.051, -0.283, 0.274), (0.933, 1.283, 0.25, -0.206),
    (0.848, 1.14, -0.414, 0.437), (0.853, 1.252, 0.398, -0.171),
)


def _density_f10(rng: random.Random, index: int) -> dict:
    a11, a22, b12, b21 = rng.choice(DENSITY_ARRAYS)
    # generous window: the spectrum sits well inside [-half, half]
    half = 4.0 * (a11 + a22) ** 0.5 + 2.0 * (abs(b12) + abs(b21)) + 2.0
    return {
        "version": 1,
        "shape": "square",
        "cells": {
            "1,1": {"kind": "semicircle", "a": repr(a11)},
            "2,2": {"kind": "semicircle", "a": repr(a22)},
            "1,2": {"kind": "point_mass", "b": repr(b12)},
            "2,1": {"kind": "point_mass", "b": repr(b21)},
        },
        "order": 10,
        "engines": ["partition", "fock", "analytic"],
        "precision": "float",
        "checks": [],
        "density": {"grid_min": -half, "grid_max": half,
                    "points": DENSITY_POINTS, "eps": DENSITY_EPS},
    }


_BUILDERS = {
    "engines_r10": _engines_r10,
    "checks_r8": _checks_r8,
    "density_f10": _density_f10,
}


# Jobs per round.  A run executes whole rounds, so every run of
# engines_r10 holds each named shape equally often; otherwise the cost mix
# (a square job costs about 1.3 diagonal ones) would follow the job count.
ROUND = {"engines_r10": len(SHAPE_CYCLE), "checks_r8": 1, "density_f10": 1}


def job_config(workload: str, seed: int, index: int) -> dict:
    """Config of job *index* of *workload* under *seed*."""
    return _BUILDERS[workload](_rng(workload, seed, index), index)


def config_bytes(config: dict) -> bytes:
    return (json.dumps(config, sort_keys=True, indent=1) + "\n").encode()
