"""Run a seeded discrimination experiment against the closed-form value.

Picks a pair where the classifier says an entangled ancilla helps, builds
the best entangled probe and its Helstrom measurement, and compares the
empirical success frequency of a million simulated rounds with the
theoretical success probability, for both the best single-qubit strategy
and the entangled one.
"""

import math

from entdisc import channels, discrim, oracle, smallmat

TRIALS = 10**6
SEED = 20260808

c1 = channels.parse_channel("extremal(0,0.6)")
c2 = channels.parse_channel(f"extremal(0,{math.pi/2 + 0.1})")
cls = discrim.classify_pair(c1, c2)
print(f"channels: {channels.format_channel(c1)} vs {channels.format_channel(c2)}")
print(f"classifier verdict: {'useful' if cls.useful else 'not useful'} [{cls.node}]\n")

# single-qubit strategy: best probe weight from the closed form
single = cls.params.single
t = single.arg
probe1 = oracle.PureState2(complex(math.sqrt(1 - t)), complex(math.sqrt(t)))
delta1 = oracle.delta_single(c1, c2, probe1)
meas1 = oracle.helstrom(delta1)
theory1 = discrim.success_probability(smallmat.trace_norm(delta1))
emp1 = oracle.simulate(c1, c2, probe1, meas1, TRIALS, SEED)

# entangled strategy: best probe from the restricted brute-force search
probe2, res = oracle.optimal_entangled_probe(c1, c2)
delta2 = oracle.delta_entangled(c1, c2, probe2)
meas2 = oracle.helstrom(delta2)
theory2 = discrim.success_probability(smallmat.trace_norm(delta2))
emp2 = oracle.simulate(c1, c2, probe2, meas2, TRIALS, SEED + 1)

sigma = 0.5 / math.sqrt(TRIALS)
print(f"{TRIALS} rounds per strategy, seed {SEED}, sigma <= {sigma:.2e}\n")
print("strategy          theory       empirical    z-score")
print(
    f"single qubit      {theory1:.6f}     {emp1:.6f}     "
    f"{(emp1 - theory1) / sigma:+.2f}"
)
print(
    f"entangled pair    {theory2:.6f}     {emp2:.6f}     "
    f"{(emp2 - theory2) / sigma:+.2f}"
)
print(
    f"\nentangled advantage: {theory2 - theory1:.6f} in success probability"
    f" ({res.value - single.value:.6f} in trace distance)"
)
