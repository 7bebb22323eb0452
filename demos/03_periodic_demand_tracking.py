"""Periodic demand: steady-state tracking as a zero-phase low-pass filter.

The demand oscillates between two Gaussian lobes once per time unit; eleven
unequal agents track it at steady state.  Per partition cell, the map from
reference signal to optimal trajectory is a zero-phase filter, the exact
gain of the time grid's piecewise-linear reference, which is close to the
continuous law 1 / (alpha^2 w^2 + 1) while the step is small against alpha:
small alpha follows the demand closely and large alpha barely moves.  The
script prints per-harmonic gains for three values of alpha and writes one
period of the steady-state trajectories.
"""

from pathlib import Path

import numpy as np

from swarmlq import Density, Scenario, gaussian_mixture_demand, solve_periodic

weights = np.array([4.0, 7, 2, 9, 5, 8, 3, 10, 6, 1, 5])
weights = weights / weights.sum()
resource = Density((-2, 12), atoms=np.column_stack([np.linspace(2, 8, 11), weights]))

demand = gaussian_mixture_demand(
    means=[2.5, 7.5], sigmas=[1.0, 1.0], base_weights=[1.0, 1.0],
    sin_amplitudes=[1.0, -1.0], period=1.0, domain=(-2, 12), nx=300)

for alpha in (0.02, 0.08, 0.4):
    scenario = Scenario(resource, demand, alpha=alpha, horizon=None,
                        nt=128, n_harmonics=32)
    sol = solve_periodic(scenario)
    gains = {}
    for label, k, omega, dab, rab, g in sol.frequency_table:
        if label == "cell5" and 1 <= k <= 4:
            gains[k] = g
    gtxt = "  ".join(f"k={k}: {gains[k]:.3f}" for k in sorted(gains))
    print(f"alpha = {alpha:4.2f}: avg cost {sol.cost:8.4f}  "
          f"motion {sol.breakdown.motion:8.4f}  mid-cell gains  {gtxt}")

# keep the moderate-alpha steady state for export
scenario = Scenario(resource, demand, alpha=0.08, horizon=None,
                    nt=128, n_harmonics=32)
sol = solve_periodic(scenario)
print(f"\ncost floor from averaging (per period): {sol.breakdown.limit:.4f}")
print(f"warm-up simulated over 3*alpha = {3 * 0.08:.2f} time units, "
       f"{len(sol.warmup.t)} slices")

out = Path(__file__).with_suffix(".csv")
with open(out, "w") as f:
    f.write("t," + ",".join(f"pos_{i}" for i in range(11)) + "\n")
    for t, d in zip(sol.trajectory.t, sol.trajectory.densities):
        f.write(",".join([repr(float(t))] + [repr(float(x)) for x in d.atom_x]) + "\n")
print(f"wrote one steady-state period to {out.name}")
