"""Run a seeded discrimination experiment against the closed-form value.

Picks a pair where the classifier says an entangled ancilla helps, takes
the best single-qubit probe from the closed form and the best entangled
probe from the oracle, and runs :func:`oracle.simulate` on each: the
empirical success frequency of a million simulated Helstrom rounds is
compared with the theoretical success probability of the probe's output
trace distance.
"""

import math

from entdisc import channels, discrim, oracle

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
probe1 = oracle.PureState((complex(math.sqrt(1 - t)), complex(math.sqrt(t))))
distance1, emp1 = oracle.simulate(c1, c2, probe1, TRIALS, SEED)
theory1 = discrim.success_probability(distance1)

# entangled strategy: best probe from the restricted brute-force search
probe2, res = oracle.optimal_entangled_probe(c1, c2)
distance2, emp2 = oracle.simulate(c1, c2, probe2, TRIALS, SEED + 1)
theory2 = discrim.success_probability(distance2)

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
