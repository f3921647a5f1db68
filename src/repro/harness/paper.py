"""The paper's published evaluation numbers (Tables 2, 3 and 4).

Stored verbatim so EXPERIMENTS.md and the benches can print
paper-vs-measured side by side.  All overhead values are percent
relative to the reference time t₀.

Row layout per (strategy, T): for each ϕ ∈ {1, 3, 8}:
``failure_free``; per location ∈ {start, center}: ``total`` (overhead
with ψ=ϕ node failures) and ``reconstruction``.
"""

from __future__ import annotations

#: Emilia_923 — t0 = 14.66 s, C = 10 279 iterations (Table 2).
PAPER_TABLE2 = {
    "t0": 14.66,
    "C": 10279,
    "cells": {
        ("esrp", 1): {
            "failure_free": {1: 0.5, 3: 1.3, 8: 9.1},
            ("start", "total"): {1: 2.8, 3: 3.7, 8: 11.5},
            ("center", "total"): {1: 2.4, 3: 3.4, 8: 10.7},
            ("start", "reconstruction"): {1: 2.4, 3: 2.1, 8: 3.6},
            ("center", "reconstruction"): {1: 1.9, 3: 2.2, 8: 2.8},
        },
        ("esrp", 20): {
            "failure_free": {1: 0.1, 3: 0.4, 8: 1.7},
            ("start", "total"): {1: 2.0, 3: 2.9, 8: 4.6},
            ("center", "total"): {1: 2.1, 3: 3.0, 8: 4.4},
            ("start", "reconstruction"): {1: 2.4, 3: 2.1, 8: 3.6},
            ("center", "reconstruction"): {1: 1.1, 3: 2.2, 8: 2.8},
        },
        ("esrp", 50): {
            "failure_free": {1: 0.4, 3: 0.7, 8: 1.3},
            ("start", "total"): {1: 2.7, 3: 5.0, 8: 5.0},
            ("center", "total"): {1: 2.5, 3: 3.7, 8: 3.8},
            ("start", "reconstruction"): {1: 1.6, 3: 2.9, 8: 3.6},
            ("center", "reconstruction"): {1: 1.1, 3: 2.2, 8: 2.8},
        },
        ("esrp", 100): {
            "failure_free": {1: 0.3, 3: 0.2, 8: 1.1},
            ("start", "total"): {1: 3.5, 3: 4.0, 8: 5.5},
            ("center", "total"): {1: 3.2, 3: 4.2, 8: 4.1},
            ("start", "reconstruction"): {1: 1.6, 3: 2.9, 8: 3.6},
            ("center", "reconstruction"): {1: 1.9, 3: 2.2, 8: 2.8},
        },
        ("imcr", 20): {
            "failure_free": {1: 1.1, 3: 2.2, 8: 5.3},
            ("start", "total"): {1: 0.9, 3: 2.8, 8: 5.7},
            ("center", "total"): {1: 1.5, 3: 2.3, 8: 5.6},
            ("start", "reconstruction"): {1: 0.0, 3: 0.0, 8: 0.0},
            ("center", "reconstruction"): {1: 0.0, 3: 0.0, 8: 0.0},
        },
        ("imcr", 50): {
            "failure_free": {1: 0.5, 3: 1.4, 8: 2.3},
            ("start", "total"): {1: 1.2, 3: 2.1, 8: 3.2},
            ("center", "total"): {1: 1.0, 3: 1.7, 8: 3.3},
            ("start", "reconstruction"): {1: 0.0, 3: 0.0, 8: 0.0},
            ("center", "reconstruction"): {1: 0.0, 3: 0.0, 8: 0.0},
        },
        ("imcr", 100): {
            "failure_free": {1: 0.4, 3: 1.2, 8: 1.3},
            ("start", "total"): {1: 2.3, 3: 2.1, 8: 2.2},
            ("center", "total"): {1: 1.7, 3: 1.9, 8: 3.5},
            ("start", "reconstruction"): {1: 0.0, 3: 0.0, 8: 0.0},
            ("center", "reconstruction"): {1: 0.0, 3: 0.0, 8: 0.0},
        },
    },
}

#: audikw_1 — t0 = 23.22 s, C = 5 543 iterations (Table 3).
PAPER_TABLE3 = {
    "t0": 23.22,
    "C": 5543,
    "cells": {
        ("esrp", 1): {
            "failure_free": {1: 4.4, 3: 4.6, 8: 7.4},
            ("start", "total"): {1: 5.5, 3: 8.0, 8: 13.2},
            ("center", "total"): {1: 5.8, 3: 6.2, 8: 10.4},
            ("start", "reconstruction"): {1: 1.3, 3: 2.6, 8: 5.7},
            ("center", "reconstruction"): {1: 1.3, 3: 1.5, 8: 2.2},
        },
        ("esrp", 20): {
            "failure_free": {1: 0.9, 3: 0.9, 8: 1.4},
            ("start", "total"): {1: 2.9, 3: 3.6, 8: 7.5},
            ("center", "total"): {1: 2.5, 3: 2.6, 8: 3.7},
            ("start", "reconstruction"): {1: 1.8, 3: 2.5, 8: 5.7},
            ("center", "reconstruction"): {1: 1.3, 3: 1.5, 8: 2.3},
        },
        ("esrp", 50): {
            "failure_free": {1: 0.7, 3: 0.4, 8: 0.4},
            ("start", "total"): {1: 3.4, 3: 4.1, 8: 7.1},
            ("center", "total"): {1: 2.4, 3: 2.9, 8: 3.4},
            ("start", "reconstruction"): {1: 1.8, 3: 2.7, 8: 5.7},
            ("center", "reconstruction"): {1: 1.3, 3: 1.5, 8: 2.2},
        },
        ("esrp", 100): {
            "failure_free": {1: 0.1, 3: 0.2, 8: 0.4},
            ("start", "total"): {1: 3.3, 3: 4.8, 8: 8.3},
            ("center", "total"): {1: 3.6, 3: 3.4, 8: 4.3},
            ("start", "reconstruction"): {1: 1.3, 3: 2.5, 8: 5.7},
            ("center", "reconstruction"): {1: 1.3, 3: 1.5, 8: 2.3},
        },
        ("imcr", 20): {
            "failure_free": {1: 0.3, 3: 0.8, 8: 2.1},
            ("start", "total"): {1: 0.6, 3: 1.1, 8: 2.2},
            ("center", "total"): {1: 0.5, 3: 1.1, 8: 2.3},
            ("start", "reconstruction"): {1: 0.0, 3: 0.0, 8: 0.0},
            ("center", "reconstruction"): {1: 0.0, 3: 0.0, 8: 0.0},
        },
        ("imcr", 50): {
            "failure_free": {1: 0.1, 3: 0.4, 8: 0.9},
            ("start", "total"): {1: 1.0, 3: 1.0, 8: 1.8},
            ("center", "total"): {1: 1.0, 3: 2.0, 8: 1.9},
            ("start", "reconstruction"): {1: 0.0, 3: 0.0, 8: 0.0},
            ("center", "reconstruction"): {1: 0.0, 3: 0.0, 8: 0.0},
        },
        ("imcr", 100): {
            "failure_free": {1: 0.0, 3: 0.2, 8: 0.7},
            ("start", "total"): {1: 1.8, 3: 1.9, 8: 2.3},
            ("center", "total"): {1: 1.7, 3: 2.2, 8: 2.5},
            ("start", "reconstruction"): {1: 0.0, 3: 0.0, 8: 0.0},
            ("center", "reconstruction"): {1: 0.0, 3: 0.0, 8: 0.0},
        },
    },
}

#: The published overhead table of each problem that has one; any
#: other problem is printed without paper values.
PAPER_TABLES = {"emilia_923_like": PAPER_TABLE2, "audikw_1_like": PAPER_TABLE3}

#: Residual drift (Table 4): reference / median / minimum.
PAPER_TABLE4 = {
    "Emilia_923": {"reference": -4.43e-2, "median": -4.74e-2, "minimum": -5.63e-2},
    "audikw_1": {"reference": -7.98e-2, "median": -6.67e-2, "minimum": -1.55e-1},
}
