"""Walk a handful of channel pairs through the classifier.

Shows the discrimination parameters, the best single-qubit and entangled
trace distances, and the decision-tree verdict for several characteristic
families: amplitude-damping pairs, quasi-extreme pairs, a swapped-role
pair where the ancilla genuinely helps, and an interior (Pauli) mixture.
"""

import math

from entdisc import channels, discrim

PAIRS = [
    ("identity vs full damping", "identity", f"ad({math.pi/2})"),
    ("two partial dampings", f"ad({math.pi/3})", f"ad({math.pi/6})"),
    ("quasi-extreme pair", "extremal(0.7,0.7)", "extremal(1.9,1.9)"),
    ("swapped-role pair", "extremal(0,0.6)", f"extremal(0,{math.pi/2 + 0.1})"),
    ("Pauli mixture vs damping", "pauli(0.4,0.5,1.0)", "ad(0.8)"),
]

for label, lit1, lit2 in PAIRS:
    c1 = channels.parse_channel(lit1)
    c2 = channels.parse_channel(lit2)
    cls = discrim.classify_pair(c1, c2)
    p = cls.params
    single, ent = p.single, p.entangled
    print(f"== {label}")
    print(f"   channels: {lit1}  vs  {lit2}")
    print(
        f"   alpha={p.alpha:+.4f} beta={p.beta:+.4f} "
        f"gamma1={p.gamma1:+.4f} gamma2={p.gamma2:+.4f}"
    )
    print(
        f"   best single distance   {single.value:.6f} "
        f"(probe weight {single.arg:.4f}, {single.branch})"
    )
    print(
        f"   best entangled distance {ent.value:.6f} "
        f"(Schmidt weight {ent.arg:.4f}, {ent.branch})"
    )
    verdict = "USEFUL" if cls.useful else "not useful"
    print(f"   side entanglement: {verdict}   [node {cls.node}]")
    print(
        f"   success probabilities: "
        f"{discrim.success_probability(single.value):.6f} -> "
        f"{discrim.success_probability(ent.value):.6f}"
    )
    print()
