"""Exact synthesis: factoring group elements into gate words.

The gates rho, sigma (both tau-free) and tau generate, modulo scalars,
every icosian quaternion whose reduced norm is a unit times a power of
eta.  A word costs exactly one tau per eta in the norm, and peeling
those taus off one at a time is deterministic: at every step exactly
one of the 60 tau-free classes lets the next tau divide out.
"""

import random

from icogate.icosian import (RHO, SIGMA, TAU, GateWord, canonical,
                             evaluate_word, exact_synthesize, generate_c60,
                             tau_count, word_to_quat)
from icogate.unitary import distance

def coords(q):
    return "(" + ", ".join(str(p) for p in q.parts()) + ")"


def residues(q):
    """q mod eta: Z[phi]/(eta) is the field F_59, with phi -> 34."""
    return tuple((x.a + 34 * x.b) % 59 for x in q.parts())


def hamilton_mod(g, h):
    """The quaternion product of two residue vectors, in F_59^4."""
    g0, g1, g2, g3 = g
    h0, h1, h2, h3 = h
    return tuple(v % 59 for v in (g0 * h0 - g1 * h1 - g2 * h2 - g3 * h3,
                                  g0 * h1 + g1 * h0 + g2 * h3 - g3 * h2,
                                  g0 * h2 - g1 * h3 + g2 * h0 + g3 * h1,
                                  g0 * h3 + g1 * h2 - g2 * h1 + g3 * h0))


print("== the tau-free part: 60 classes ==")
table = generate_c60()
print(f"closure of {{rho, sigma}} mod scalars: {len(table)} elements")
print(f"rho   = {coords(RHO)}")
print(f"sigma = {coords(SIGMA)}")
print(f"tau   = {coords(TAU)}   nrd(tau) = {TAU.nrd()}  (that's eta)")
print()

print("== a word and its quaternion ==")
word = GateWord.parse("(rs)t(srs)t(r)")
q = word_to_quat(word)
print(f"word {word} has tau-count {word.tau_count}")
print(f"as a quaternion: {coords(q)},  nrd = {q.nrd()}")
print(f"eta-valuation of the norm: {tau_count(q)} (one per tau, always)")
print()

print("== refactoring is exact and canonical ==")
again = exact_synthesize(q)
print(f"exact_synthesize gives {again}")
print(f"projectively equal: {canonical(word_to_quat(again)) == canonical(q)}")
e = distance(evaluate_word(word, 96), evaluate_word(again, 96))
print(f"distance between the two evaluations: {e}")
print()

print("== the peeling is forced at every step ==")
print("eta divides gamma*c*tau exactly when the residues mod eta multiply")
print("to zero, and for each gamma one cofactor c of the 60 does that")
gamma = canonical(q)
step = 0
while tau_count(gamma) > 0:
    g = residues(gamma)
    hits = [(c, w) for c, w in table
            if not any(hamilton_mod(g, residues(c * TAU)))]
    c, w = hits[0]
    print(f"step {step}: gamma = {g} mod eta; the product vanishes for "
          f"{len(hits)} of 60: c = ({w}), c*tau = {residues(c * TAU)}")
    gamma = canonical(gamma * (c * TAU))
    step += 1
print(f"after {step} peels the residual is tau-free: {coords(gamma)}")
print()

print("== random words round-trip (and get reduced) ==")
rng = random.Random(1)
for _ in range(3):
    segs = ["".join(rng.choice("rs") for _ in range(rng.randint(1, 5)))
            for _ in range(rng.randint(2, 5))]
    w = GateWord(tuple(segs))
    v = word_to_quat(w)
    back = exact_synthesize(v)
    same = canonical(word_to_quat(back)) == canonical(v)
    note = "" if back.tau_count == w.tau_count else \
        f"  (a segment collapsed through tau^2 = -eta: "\
        f"{w.tau_count} taus written, {back.tau_count} needed)"
    print(f"{str(w):40s} -> tau {back.tau_count}, round-trip {same}{note}")
