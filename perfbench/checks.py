"""Correctness checks on the benchmark's outputs.

Every check returns a list of error strings, each starting with the check's
name; an empty list means the output passed.  The checks use closed forms,
the plain-Python formula oracle of the test suite, or properties the method
must have, and never the program's own membership or region code.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

import formula_oracle as oracle

GAP_LIMIT = 4.5            # the paper's 4.4 bits plus criterion 1's grid slack
BISECTION_TOL = 1e-4       # resolution of the reported gap, bits
DRIFT_LIMIT = 1e-2         # criterion 8: doubling the grids moves a gap by less
SANDWICH_TOL = 1e-6        # criterion 3's frontier tolerance
MEMBER_TOL = 1e-7          # half-plane slack for the oracle vertices, bits
FAMILY_DIRECTIONS = {"r1": (1.0, 0.0), "r2": (0.0, 1.0), "sum": (1.0, 1.0),
                     "two_r1": (2.0, 1.0), "two_r2": (1.0, 2.0)}


def single_user_rate(p, i: int) -> float:
    return 0.5 * math.log2(1.0 + p.snr_fwd(i))


def cut_set_rate(p, i: int) -> float:
    """Closed-form cut-set bound on R_i: full coherent combining at receiver i."""
    return 0.5 * math.log2(1.0 + (math.sqrt(p.snr_fwd(i)) + math.sqrt(p.inr(i))) ** 2)


def check_gap(p, gap: float, witness) -> list[str]:
    errors = []
    if not 0.0 <= gap <= GAP_LIMIT:
        errors.append(f"gap_range: gap {gap!r} outside [0, {GAP_LIMIT}] at {p}")
    for i, w in enumerate(witness, start=1):
        if not 0.0 <= w <= cut_set_rate(p, i) + 1e-9:
            errors.append(f"witness: R{i}={w!r} outside [0, {cut_set_rate(p, i)}] at {p}")
    if not gap <= max(witness) + BISECTION_TOL:
        errors.append(f"gap_vs_witness: gap {gap!r} above the witness {witness} at {p}")
    return errors


def check_surface_row(gaps: np.ndarray, missing: dict) -> list[str]:
    errors = [f"surface_missing: cell {cell} missing ({why})" for cell, why in missing.items()]
    for g in np.ravel(gaps):
        if not 0.0 <= g <= GAP_LIMIT:
            errors.append(f"gap_range: surface cell {g!r} outside [0, {GAP_LIMIT}]")
    return errors


def check_repeat(first: tuple, again: tuple) -> list[str]:
    if first != again:
        return [f"repeat: the same operation returned {again} after {first}"]
    return []


def check_drift(dense: float, default: float, p) -> list[str]:
    if not abs(dense - default) < DRIFT_LIMIT:
        return [f"grid_drift: doubled grids moved the gap from {default!r} to {dense!r} at {p}"]
    return []


def check_recomposed(recomposed: float, reported: float, p) -> list[str]:
    if recomposed != reported:
        return [f"recomposed: traced gap {recomposed!r} != exact_gap's {reported!r} at {p}"]
    return []


def check_corners(p, inner) -> list[str]:
    errors = []
    for i in (1, 2):
        reach = float(np.max(inner.vertices[:, i - 1]))
        if not reach >= single_user_rate(p, i) - 1e-12:
            errors.append(f"corners: inner R{i} reaches {reach!r} < "
                          f"{single_user_rate(p, i)!r} at {p}")
    return errors


def check_sandwich(inner, outer) -> list[str]:
    r1_in = float(inner.frontier_r1[-1])
    r1_out = float(outer.frontier_r1[-1])
    xs = np.linspace(0.0, r1_in, 512)
    excess = np.max(np.interp(xs, inner.frontier_r1, inner.frontier_r2)
                    - np.interp(xs, outer.frontier_r1, outer.frontier_r2))
    errors = []
    if not excess <= SANDWICH_TOL:
        errors.append(f"sandwich: inner frontier exceeds the outer by {excess!r}")
    if not r1_in <= r1_out + SANDWICH_TOL:
        errors.append(f"sandwich: inner reaches R1={r1_in!r} beyond the outer's {r1_out!r}")
    return errors


def oracle_vertices(ch: dict, rho: float, mu1: float, mu2: float) -> list[tuple[float, float]]:
    """Vertices of the 17-bound polytope, by brute force over constraint pairs."""
    bounds = [(*FAMILY_DIRECTIONS[fam], rhs)
              for fam, rhss in oracle.inner_bound_rhs(ch, rho, mu1, mu2).items()
              for rhs in rhss]
    bounds += [(-1.0, 0.0, 0.0), (0.0, -1.0, 0.0)]
    out = []
    for (a1, a2, ra), (b1, b2, rb) in combinations(bounds, 2):
        det = a1 * b2 - a2 * b1
        if abs(det) < 1e-12:
            continue
        x = (ra * b2 - rb * a2) / det
        y = (a1 * rb - b1 * ra) / det
        if all(c1 * x + c2 * y <= r + 1e-9 for c1, c2, r in bounds):
            out.append((x, y))
    return out


def sample_triples(p, rho_points: int, mu_points: int, rng, n: int):
    """n (rho, mu1, mu2) triples of the inner sweep grid, rebuilt in plain Python."""
    sup = max(0.0, 1.0 - max(1.0 / p.inr_12, 1.0 / p.inr_21))
    out = []
    for _ in range(n):
        k, j1, j2 = (int(rng.integers(m)) for m in (rho_points, mu_points, mu_points))
        out.append((sup * k / (rho_points - 1), j1 / (mu_points - 1), j2 / (mu_points - 1)))
    return out


def _inside_hull(hull: np.ndarray, pt) -> bool:
    """Plain half-plane test against a counterclockwise hull."""
    n = len(hull)
    for k in range(n):
        ax, ay = hull[k]
        bx, by = hull[(k + 1) % n]
        cross = (bx - ax) * (pt[1] - ay) - (by - ay) * (pt[0] - ax)
        if cross < -MEMBER_TOL * math.hypot(bx - ax, by - ay):
            return False
    return True


def check_oracle_vertices(p, inner, triples) -> list[str]:
    """Oracle polytope vertices lie in the achievable region (both INRs >= 1).

    Below unit INR the library caps the private power, where the oracle's
    formulas do not, so the oracle does not describe those channels.
    """
    if min(p.inr_12, p.inr_21) < 1.0:
        return []
    ch = {"snr1": p.snr_fwd_1, "snr2": p.snr_fwd_2, "inr12": p.inr_12,
          "inr21": p.inr_21, "fb1": p.snr_bwd_1, "fb2": p.snr_bwd_2}
    hull = np.asarray(inner.vertices, float)
    if len(hull) < 3:
        return [f"oracle_vertices: degenerate inner hull {hull.tolist()} at {p}"]
    errors = []
    for rho, mu1, mu2 in triples:
        for v in oracle_vertices(ch, rho, mu1, mu2):
            if not _inside_hull(hull, v):
                errors.append(f"oracle_vertices: vertex {v} at (rho, mu1, mu2)="
                              f"({rho}, {mu1}, {mu2}) outside the inner region at {p}")
    return errors
