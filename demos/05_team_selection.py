"""Which agents should get incentive pay at all?

On unweighted networks the optimal active set is a maximum clique: tightly
knit groups make each member's incentives work on the others.  Weighted
networks are ranked by the balance constant each candidate subnetwork can
support per unit of total share; every optimal set has diameter at most 2.
"""

import numpy as np

import teampay as tp

p = tp.LinearCappedSuccess(0.5)

# Triangle plus a pendant vertex: the pendant is excluded even though it is
# connected, and the triangle members split the share equally.
w = np.zeros((4, 4))
for i, j in [(0, 1), (0, 2), (1, 2), (2, 3)]:
    w[i, j] = w[j, i] = 1.0
network = tp.Network(w)

for cand in tp.optimal_active_set(network):
    print("candidate", cand.agents, "balance rate", cand.share_rate)

opt = tp.optimize_quadratic_binary(network, p)
print("optimal payments:", opt.contract.payments[:, 1])

# Weighted comparison: a strong pair beats a weak pair.
w2 = np.zeros((4, 4))
w2[0, 1] = w2[1, 0] = 1.0
w2[2, 3] = w2[3, 2] = 0.5
ranked = tp.optimal_active_set(tp.Network(w2))
print("disjoint edges ranked:")
for cand in ranked:
    if len(cand.agents) == 2:
        print("  ", cand.agents, cand.share_rate)
