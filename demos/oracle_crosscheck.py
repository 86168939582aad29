"""Cross-check every closed form against the brute-force search.

Runs the seeded checks behind `entdisc verify` on a few dozen pairs that
alternate between extremal maps and mixtures, and prints their reports:
the closed-form single-qubit and entangled maxima against the oracle's
searches (with Lemma 2 certified on every pair), and the decision tree's
verdicts against the advantage the oracle measures.  `entdisc verify` and
the acceptance tests run the same checks at larger sample counts.
"""

from entdisc import checks, oracle

SAMPLES = 60
SEED = 7
cfg = oracle.SearchConfig(grid_points=96)

lemma1 = checks.check_lemma1(SAMPLES, SEED, cfg)
lemma2 = checks.check_lemma2(SAMPLES, SEED, cfg)
tree = checks.check_tree(SAMPLES, SEED, cfg)
agree = tree["retained"] - len(tree["failures"])

print(f"{SAMPLES} seeded pairs (alternating extremal / mixtures), seed {SEED}")
print(f"worst |closed - brute| single   : {lemma1['max_deviation']:.3e}")
print(f"worst |closed - brute| entangled: {lemma2['max_deviation']:.3e}")
print(f"largest certified Lemma 2 excess: {lemma2['max_certified_excess']:.3e}")
print(f"tree vs oracle agreement        : {agree}/{tree['retained']} retained samples")
print(f"  (discarded: slack below {tree['slack_threshold']:g}; "
      f"useful: oracle gap above {tree['gap_threshold']:g})")
for report in (lemma1, lemma2, tree):
    print(f"{report['mode']:<6}: {'PASS' if report['passed'] else 'FAIL'}")
