"""Cross-check every closed form against the brute-force search.

Draws seeded random channel pairs (extremal and mixtures), compares the
closed-form trace-distance maxima with direct probe-state optimization,
and tallies decision-tree agreement with the measured advantage.  This is
a compact version of what `entdisc verify` and the acceptance tests run
at larger sample counts.
"""

import numpy as np

from entdisc import checks, discrim, oracle

SAMPLES = 60
SEED = 7
cfg = oracle.SearchConfig(grid_points=96)

rng = np.random.default_rng(SEED)
worst_single = worst_ent = 0.0
agree = retained = 0
for k in range(SAMPLES):
    if k % 2 == 0:
        c1, c2 = checks.sample_extremal(rng), checks.sample_extremal(rng)
    else:
        c1, c2 = checks.sample_mixture(rng), checks.sample_mixture(rng)
    cls = discrim.classify_pair(c1, c2)
    closed_s, closed_e = cls.params.single.value, cls.params.entangled.value
    brute_s = oracle.brute_max_single(c1, c2, cfg).value
    brute_e = oracle.brute_max_entangled(c1, c2, cfg).value
    worst_single = max(worst_single, abs(closed_s - brute_s))
    worst_ent = max(worst_ent, abs(closed_e - brute_e))
    if cls.margins and min(abs(v) for v in cls.margins.values()) < 1e-3:
        continue
    retained += 1
    if cls.useful == (brute_e - brute_s > 1e-6):
        agree += 1

print(f"{SAMPLES} seeded pairs (alternating extremal / mixtures)")
print(f"worst |closed - brute| single   : {worst_single:.3e}")
print(f"worst |closed - brute| entangled: {worst_ent:.3e}")
print(f"tree vs oracle agreement        : {agree}/{retained} retained samples")
