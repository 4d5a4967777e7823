"""Compiling arbitrary unitaries: the sandwich pipeline end to end.

A generic target g becomes u(theta1) * gamma * u(theta2): a short
central gamma fixes |alpha| (one third of the taus), and two diagonal
words fix the phases (a third each).  Special targets short-circuit:
group elements snap to their exact word, near-diagonal targets skip the
sandwich entirely.
"""

import random
import time

from mpmath import mp, mpf

from icogate.general import SynthConfig, synth_general
from icogate.icosian import RHO, evaluate_word
from icogate.unitary import distance, named_gate, u_of_alpha_beta


def show(label, g, eps, **cfg):
    start = time.perf_counter()
    r = synth_general(g, SynthConfig(eps, **cfg))
    elapsed = time.perf_counter() - start
    check = distance(g, evaluate_word(r.word, 220))
    print(f"{label}: tau {r.word.tau_count} "
          f"(central {r.central_tau} @ shell k={r.k}, outer {r.outer_tau})")
    print(f"    achieved {mp.nstr(r.achieved, 3)} "
          f"(re-checked {mp.nstr(check, 3)}), {elapsed:.2f}s")
    return r


print("== a group element costs nothing ==")
r = show("rho itself", RHO.to_unitary(200), 1e-4)
print(f"    word: {r.word}")
print()

print("== named gates ==")
for name in ("H", "T", "S", "X"):
    show(f"{name} @ 1e-4", named_gate(name, 200), 1e-4)
print()

print("== a random target, tighter accuracy ==")
rng = random.Random(99)
with mp.workprec(220):
    a = mp.sqrt(mpf(rng.random())) * mp.expj(mpf(rng.uniform(-3, 3)))
    b = mp.sqrt(1 - abs(a) ** 2) * mp.expj(mpf(rng.uniform(-3, 3)))
    g = u_of_alpha_beta(a, b, 220)
print(f"|alpha| = {mp.nstr(abs(a), 4)}")
r = show("random @ 1e-6", g, 1e-6)
print()

print("== strict mode ==")
print("default mode stops at the first word measured below 1.5*eps;")
print("strict mode runs the same search and stops at the first word "
      "measured below eps, less the measurement margin:")
show("H default @ 1e-5", named_gate("H", 200), 1e-5)
show("H strict @ 1e-5", named_gate("H", 200), 1e-5, strict=True)
