"""Reference computations for the benchmark's per-op checks.

Nothing here calls into ``swarmlq``: the quantile and W2 code below is an
independent implementation, so a defect in the library's own kernels cannot
also hide itself in the check.
"""

import re

import numpy as np

_GAUSS = 0.5 / np.sqrt(3.0)  # two-point Gauss nodes, exact for quadratics


class Quantile:
    """Piecewise-linear quantile of a density given by atoms and histogram cells.

    Stored as mass-carrying segments ``[z_lo, z_hi] -> [x_lo, x_hi]``; an
    atom is a segment with ``x_lo == x_hi``.  Evaluation is only ever asked
    for at points strictly inside the intervals between ``breaks``.
    """

    def __init__(self, atom_x, atom_m, edges, values):
        atom_x = np.asarray(atom_x, float)
        atom_m = np.asarray(atom_m, float)
        edges = np.asarray(edges, float)
        values = np.asarray(values, float)
        x_lo, x_hi, mass = [atom_x], [atom_x], [atom_m]
        if len(edges):
            inner = atom_x[(atom_x > edges[0]) & (atom_x < edges[-1])]
            cuts = np.union1d(edges, inner)
            a, b = cuts[:-1], cuts[1:]
            # by left end: the midpoint of a sliver cell can round onto its right edge
            cell = np.searchsorted(edges, a, side="right") - 1
            x_lo.append(a)
            x_hi.append(b)
            mass.append(values[cell] * (b - a))
        x_lo, x_hi, mass = (np.concatenate(v) for v in (x_lo, x_hi, mass))
        keep = mass > 0
        x_lo, x_hi, mass = x_lo[keep], x_hi[keep], mass[keep]
        order = np.lexsort((x_hi, x_lo))  # an atom at x precedes a cell starting at x
        x_lo, x_hi, mass = x_lo[order], x_hi[order], mass[order]
        z_hi = np.cumsum(mass) / np.sum(mass)
        z_lo = np.concatenate([[0.0], z_hi[:-1]])
        z_hi[-1] = 1.0
        self.z_lo, self.z_hi, self.x_lo, self.x_hi = z_lo, z_hi, x_lo, x_hi
        self.breaks = np.union1d(z_lo, z_hi)

    @classmethod
    def of(cls, density):
        return cls(density.atom_x, density.atom_m, density.edges, density.values)

    def flats(self):
        """``(z_lo, z_hi)`` rows of the atoms: the level-set partition cells."""
        atom = self.x_lo == self.x_hi
        return np.column_stack([self.z_lo[atom], self.z_hi[atom]])

    def __call__(self, z):
        i = np.minimum(np.searchsorted(self.z_hi, z, side="left"), len(self.z_hi) - 1)
        w = (z - self.z_lo[i]) / (self.z_hi[i] - self.z_lo[i])
        return self.x_lo[i] + w * (self.x_hi[i] - self.x_lo[i])


class CellAveraged:
    """Quantile replaced by its mean on each partition cell (the paper's D-bar)."""

    def __init__(self, q, cells):
        self.q = q
        self.cells = np.asarray(cells, float).reshape(-1, 2)
        self.means = np.array([_integral(q, a, b) / (b - a) for a, b in self.cells])
        self.breaks = np.union1d(q.breaks, self.cells.ravel())

    def __call__(self, z):
        out = self.q(z)
        for (a, b), m in zip(self.cells, self.means):
            out[(z > a) & (z < b)] = m
        return out


def _gauss_nodes(breaks):
    lo, hi = breaks[:-1], breaks[1:]
    keep = hi > lo
    lo, hi = lo[keep], hi[keep]
    mid, w = 0.5 * (lo + hi), hi - lo
    return mid - _GAUSS * w, mid + _GAUSS * w, w


def _integral(q, a, b):
    inner = q.breaks[(q.breaks > a) & (q.breaks < b)]
    g1, g2, w = _gauss_nodes(np.concatenate([[a], inner, [b]]))
    return float(np.sum(0.5 * w * (q(g1) + q(g2))))


def w2(qa, qb):
    """Exact 2-Wasserstein distance between two piecewise-linear quantiles."""
    g1, g2, w = _gauss_nodes(np.union1d(qa.breaks, qb.breaks))
    sq = np.sum(0.5 * w * ((qa(g1) - qb(g1)) ** 2 + (qa(g2) - qb(g2)) ** 2))
    return float(np.sqrt(max(sq, 0.0)))


def static_lq_cost(alpha, T, r0, d):
    """Optimal cost of scalar tracking toward a constant reference ``d``."""
    return (np.asarray(r0, float) - d) ** 2 * alpha * np.tanh(T / alpha)


def phi_r(alpha, T, t):
    """Closed-loop state transition ``cosh((T - t)/alpha) / cosh(T/alpha)``."""
    return np.cosh((T - np.asarray(t, float)) / alpha) / np.cosh(T / alpha)


# ``name = value`` in the [results] section of summary.txt.  The value is a
# plain float repr or, where the solver hands back a numpy scalar, its
# ``np.float64(...)`` repr; both are accepted.
_RESULT_LINE = re.compile(r"^(\w+) = (?:np\.float64\((.+)\)|(.+))$")


def parse_summary(text):
    """Numeric results of a CLI ``summary.txt``; non-numeric values are skipped."""
    out = {}
    section = None
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("[") and line.endswith("]"):
            section = line
            continue
        m = _RESULT_LINE.match(line)
        if section != "[results]" or m is None:
            continue
        try:
            out[m.group(1)] = float(m.group(2) or m.group(3))
        except ValueError:
            continue
    return out
