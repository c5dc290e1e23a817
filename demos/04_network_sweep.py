"""Re-optimizing along a link-weight grid.

Strengthening the link between agents 2 and 3 weakly raises the
principal's payoff, but agent 2's payment and payoff move non-monotonically:
the new link first dilutes his role, then rewards it.  Writes the sweep as
CSV next to this script.
"""

from pathlib import Path

import numpy as np

import teampay as tp

w = np.zeros((3, 3))
w[0, 1] = w[1, 0] = 1.0
w[0, 2] = w[2, 0] = 0.8
network = tp.Network(w)
p = tp.LinearCappedSuccess(0.5)

curve = tp.sweep(network, p, "G23", np.arange(0.0, 1.0001, 0.05))

print(f"{'G23':>5} {'pay_1':>8} {'pay_2':>8} {'pay_3':>8} {'principal':>10} {'active':>7}")
for row in range(curve.grid.size):
    active = "".join(str(i + 1) for i in curve.active_sets[row])
    print(
        f"{curve.grid[row]:5.2f} "
        f"{curve.payments[row, 0]:8.4f} {curve.payments[row, 1]:8.4f} {curve.payments[row, 2]:8.4f} "
        f"{curve.principal_payoffs[row]:10.6f} {active:>7}"
    )

out = Path(__file__).with_name("network_sweep.csv")
out.write_text(tp.sweep_to_csv(curve))
print("wrote", out)

pay2 = curve.payments[:, 1]
drop = np.flatnonzero(np.diff(pay2) < -1e-9)
print("agent-2 payment falls on grid intervals starting at:", curve.grid[drop])

# Link derivatives at one point of the grid, including the optimal total
# share's own response.
mid = network.with_edge(1, 2, 0.3)
opt = tp.optimize_quadratic_binary(mid, p)
ds = tp.dshare_dlink(mid, p, opt)  # ds[i, j, k] = d tau_i / d G_jk
print("at G23=0.3, d tau_2 / d G23 =", ds[1, 1, 2], "(negative: own link still hurts)")
print("performance-link derivatives proportional to payment products:")
print(tp.dperformance_dlink(p, opt))
