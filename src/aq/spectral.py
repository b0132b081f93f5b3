"""E2 pages of the universal-coefficient, Tor, and reverse-Adams spectral
sequences in the settings where the graded homotopy category reduces to
graded modules, with collapse and convergence cross-checks against the
directly computed (co)homology.
"""

from __future__ import annotations

import random

from .abgroups import FGAbelianGroup
from .errors import AlgebraError
from .presented import Presentation
from .rings import (
    CoefficientModule,
    RModulePresentation,
    Ring,
    ext_groups,
    tor_groups,
)
from .simplicial import (
    PresentedComplex,
    bisimplicial_from_double_complex,
    cohomotopy,
    diag,
    hom_bicomplex_total_cohomology,
    hom_cochain_of_simplicial,
    moore_homotopy,
    total_complex,
)


class GradedModule:
    """A finitely supported nonnegatively graded module over a registered
    ring, each degree a finitely presented module."""

    def __init__(self, ring: Ring, components):
        self.ring = ring
        self.components = {
            int(d): m for d, m in components.items()
            if isinstance(m, RModulePresentation)
        }
        for d, m in self.components.items():
            if d < 0 or m.ring != ring:
                raise AlgebraError(
                    f"graded module: the component in degree {d} needs a "
                    f"degree >= 0 and the ring {ring!r}, not {m.ring!r}")

    @classmethod
    def concentrated(cls, module: RModulePresentation):
        return cls(module.ring, {0: module})

    def degrees(self):
        return sorted(self.components)

    def __getitem__(self, d):
        return self.components.get(d)


class SpectralPage:
    """An E2 grid with its convergence report."""

    def __init__(self, grid, quadrant, convergence=None, description=""):
        self.grid = dict(grid)
        self.quadrant = quadrant
        self.convergence = convergence or []
        self.description = description
        for (s, t) in self.grid:
            if s < 0 or t < 0:
                raise AlgebraError(
                    f"grid entry ({s},{t}) lies outside the quadrant: "
                    "indices must be >= 0")

    def entry(self, s, t) -> FGAbelianGroup:
        return self.grid.get((s, t), FGAbelianGroup())

    def consistent(self):
        return all(row["consistent"] for row in self.convergence)

    def to_json(self):
        return {
            "quadrant": self.quadrant,
            "description": self.description,
            "grid": [
                {"s": s, "t": t, "group": self.grid[(s, t)].to_json()}
                for (s, t) in sorted(self.grid)
            ],
            "convergence": self.convergence,
        }


def _order_or_rank_consistent(groups, target: FGAbelianGroup):
    """|E_infty total| = |target| for finite groups, rank equality with
    matching torsion order otherwise."""
    total_rank = sum(g.rank for g in groups)
    tor = 1
    for g in groups:
        for t in g.torsion:
            tor *= t
    target_tor = 1
    for t in target.torsion:
        target_tor *= t
    return total_rank == target.rank and tor == target_tor


def _derived_page(h: GradedModule, g: CoefficientModule, smax, derived):
    """The nonzero entries E2[s, t] = derived(h_t, g)[s], s <= smax, for
    `derived` one of `ext_groups` / `tor_groups`."""
    grid = {}
    for t in h.degrees():
        values = derived(h[t], g, smax)
        for s in range(smax + 1):
            if not values[s].is_trivial():
                grid[(s, t)] = values[s]
    return grid


def _convergence(grid, values, exact, tmax=None):
    """One report row per degree n of `values` ({n: FGAbelianGroup}): the
    diagonal s + t = n of `grid` (t <= tmax) against values[n].  With
    `exact` the diagonal must sum to the target; otherwise orders and
    ranks must agree (`_order_or_rank_consistent`), which a sum equal to
    the target also satisfies."""
    rows = []
    for n, target in sorted(values.items()):
        contributions = [grid[(s, t)] for (s, t) in sorted(grid)
                         if s + t == n and (tmax is None or t <= tmax)]
        if exact:
            total = FGAbelianGroup()
            for c in contributions:
                total = total.direct_sum(c)
            ok = total == target
        else:
            ok = _order_or_rank_consistent(contributions, target)
        rows.append({
            "degree": n,
            "page": [c.to_json() for c in contributions],
            "target": target.to_json(),
            "consistent": ok,
        })
    return rows


def uct_e2(h: GradedModule, g: CoefficientModule, smax, tmax,
           cohomology_values=None) -> SpectralPage:
    """E2^{s,t} = Ext^s(H_t, G), converging (over rings of global
    dimension <= 1, where the page is two columns) to H^{t-s}.

    cohomology_values: optional {n: FGAbelianGroup} to check the
    two-column exact sequence against directly computed cohomology:
    degree n collects Hom(H_n, G) and Ext^1(H_{n-1}, G), the diagonal
    s + t = n with t <= tmax, and over Z, where the sequence splits, is
    their sum.
    """
    grid = _derived_page(h, g, smax, ext_groups)
    convergence = []
    if cohomology_values is not None and all(s <= 1 for (s, t) in grid):
        convergence = _convergence(grid, cohomology_values,
                                   h.ring.kind == "Z", tmax)
    return SpectralPage(grid, "second", convergence,
                        description="universal coefficients (Ext) page")


def tor_e2(h: GradedModule, g: CoefficientModule, smax, tmax,
           homology_values=None) -> SpectralPage:
    """E2_{s,t} = Tor_s(H_t, G), the homological (first quadrant) page;
    `homology_values` is checked as `cohomology_values` is by `uct_e2`."""
    grid = _derived_page(h, g, smax, tor_groups)
    convergence = []
    if homology_values is not None and all(s <= 1 for (s, t) in grid):
        convergence = _convergence(grid, homology_values,
                                   h.ring.kind == "Z", tmax)
    return SpectralPage(grid, "first", convergence,
                        description="homology universal coefficients (Tor) page")


def reverse_adams_e2(pi: GradedModule, g: CoefficientModule, variant,
                     smax, comparison=None) -> SpectralPage:
    """Reverse-Adams pages for abelian settings: the derived functors of
    (abelianization tensor G) or map(-, G) on a graded-module resolution,
    i.e. Tor/Ext of the homotopy module, degreewise.

    For pi concentrated in degree 0 the page is a single row collapsing
    exactly; `comparison` ({degree: group}) is then compared entrywise.
    """
    if variant not in ("homology", "cohomology"):
        raise AlgebraError(
            f"reverse_adams_e2: variant must be homology or cohomology, "
            f"not {variant!r}")
    derived = tor_groups if variant == "homology" else ext_groups
    grid = _derived_page(pi, g, smax, derived)
    convergence = []
    if comparison is not None:
        # both variants pair the derived degree s and the internal degree
        # t into total degree s + t
        convergence = _convergence(grid, comparison,
                                   all(t == 0 for (_, t) in grid))
    quadrant = "first" if variant == "homology" else "second"
    return SpectralPage(grid, quadrant, convergence,
                        description=f"reverse Adams ({variant}) page")


def bicomplex_checks(trials=50):
    """The complete-setting checks: Eilenberg-Zilber equality of diagonal
    and total homology on random bisimplicial abelian fixtures, plus the
    Tot/diag Hom adjointness identity.  Returns an aggregate report."""
    rng = random.Random(20240817)
    truncation = 3
    ez_pass = 0
    adj_pass = 0
    for trial in range(trials):
        if trial % 2 == 0:
            cols, hdiffs = _tensor_double_complex(rng, 2, 2)
        else:
            cols, hdiffs = _zero_vertical_double_complex(rng, 2, 2)
        b = bisimplicial_from_double_complex(cols, hdiffs, truncation)
        d = diag(b)
        pis = moore_homotopy(d, range(truncation))
        hs = total_complex(b).homology(range(truncation))
        if pis == hs:
            ez_pass += 1
        g = [2]
        lhs = hom_bicomplex_total_cohomology(b, g, range(truncation))
        rhs = cohomotopy(hom_cochain_of_simplicial(d, g), range(truncation))
        if lhs == rhs:
            adj_pass += 1
    return {
        "trials": trials,
        "eilenberg_zilber_pass": ez_pass,
        "adjointness_pass": adj_pass,
        "all_pass": ez_pass == trials and adj_pass == trials,
    }


def random_columns(rng, rows, cols, lo, hi):
    """Sparse columns of a rows x cols integer matrix with entries drawn
    uniformly from lo..hi in row-major order."""
    out = [[] for _ in range(cols)]
    for i in range(rows):
        for col in out:
            x = rng.randint(lo, hi)
            if x:
                col.append((i, x))
    return out


def _tensor_double_complex(rng, smax, tmax):
    """The double complex C (x) D of two random free complexes: both
    directions carry nonzero differentials and commute by construction."""
    def random_free_complex(length):
        ranks = [rng.randint(1, 2) for _ in range(length + 1)]
        diffs = [None] + [
            random_columns(rng, ranks[n - 1], ranks[n], -3, 3) if n % 2 == 1
            else [[] for _ in range(ranks[n])] for n in range(1, length + 1)]
        return ranks, diffs

    c_ranks, c_diffs = random_free_complex(smax)
    d_ranks, d_diffs = random_free_complex(tmax)

    def kron(a, b, rows_b):
        # the Kronecker product of two maps given as sparse columns
        return [[(i * rows_b + p, x * y) for i, x in ca for p, y in cb]
                for ca in a for cb in b]

    def identity(n):
        return [[(i, 1)] for i in range(n)]

    cols = []
    for s in range(smax + 1):
        levels = [Presentation.free(c_ranks[s] * d_ranks[t])
                  for t in range(tmax + 1)]
        diffs = [None] + [kron(identity(c_ranks[s]), d_diffs[t], d_ranks[t - 1])
                          for t in range(1, tmax + 1)]
        cols.append(PresentedComplex(levels, diffs))
    hdiffs = [None] + [
        [kron(c_diffs[s], identity(d_ranks[t]), d_ranks[t])
         for t in range(tmax + 1)] for s in range(1, smax + 1)]
    return cols, hdiffs


def _zero_vertical_double_complex(rng, smax, tmax):
    cols = []
    for s in range(smax + 1):
        levels = [Presentation.free(rng.randint(0, 2))
                  for _ in range(tmax + 1)]
        diffs = [None] + [[[] for _ in range(levels[t].gens)]
                          for t in range(1, tmax + 1)]
        cols.append(PresentedComplex(levels, diffs))
    hdiffs = [None]
    for s in range(1, smax + 1):
        per_degree = []
        for t in range(tmax + 1):
            rows = cols[s - 1].levels[t].gens
            ncols = cols[s].levels[t].gens
            if s % 2 == 1:
                per_degree.append(random_columns(rng, rows, ncols, -2, 2))
            else:
                per_degree.append([[] for _ in range(ncols)])
        hdiffs.append(per_degree)
    return cols, hdiffs
