"""A tour of the exact arithmetic underneath the compiler.

Everything the synthesis pipelines do reduces to integer arithmetic in
the golden ring Z[phi] (phi^2 = phi + 1) and its Gaussian extension
Z[i, phi].  This script walks through the basic objects: norms and
units, the special prime eta = 7 + 5 phi of norm 59, factoring, and
sums of two squares.
"""

from icogate.golden import (ETA, PHI, GoldenInt, embed, eta_power, factor,
                            norm, phi_power, split_prime, unit_decompose)
from icogate.errors import NotRepresentable
from icogate.sots import sots_exact

print("== the golden ring ==")
x = GoldenInt(3, 4)  # 3 + 4 phi
print(f"x = {x},  N(x) = {norm(x)}  (a^2 + ab - b^2)")
print(f"embeddings: sigma+(x) = {embed(x, 'plus')},  "
      f"sigma-(x) = {embed(x, 'minus')}")
print(f"phi^5 = {phi_power(5)},  phi^-3 = {phi_power(-3)}")
print(f"unit_decompose(phi^-3) = {unit_decompose(phi_power(-3))}")
print()

print("== eta, the gate prime ==")
print(f"eta = {ETA},  N(eta) = {norm(ETA)}")
print(f"sigma+(eta) = {embed(ETA, 'plus')}  (about 15.09)")
print(f"eta^3 = {eta_power(3)}")
print()

print("== rational primes in Z[phi] ==")
for p in (5, 11, 19, 29, 31):
    try:
        g = split_prime(p)
        print(f"p = {p:3d} splits (or ramifies): factor {g}, N = {norm(g)}")
    except Exception as exc:
        print(f"p = {p:3d} stays irreducible ({type(exc).__name__})")
print()

print("== factoring a composite element ==")
y = GoldenInt(14, 10) * GoldenInt(2, 1)
fac = factor(y)
pieces = " * ".join(f"({f})^{m}" if m > 1 else f"({f})"
                    for f, m in fac.factors)
print(f"{y} = ({fac.unit}) * {pieces}")
print(f"round-trip ok: {fac.value() == y}")
print()

print("== sums of two squares ==")
for v in (GoldenInt(5, 0), GoldenInt(4, 1), ETA, GoldenInt(2, 1),
          GoldenInt(-1, 2)):
    try:
        s, t = sots_exact(v)
    except NotRepresentable as exc:
        reason = type(exc).__name__
    else:
        assert s * s + t * t == v
        print(f"{v} = ({s})^2 + ({t})^2")
        continue
    try:
        s, t = sots_exact(v * PHI)
    except NotRepresentable:
        print(f"{v}: not representable at either twist ({reason})")
        continue
    assert s * s + t * t == v * PHI
    print(f"{v}: only ({v})*phi = ({s})^2 + ({t})^2 works "
          f"(the golden-twist dichotomy)")
