"""Compiling the T gate: diagonal synthesis at increasing accuracy.

T is projectively the diagonal rotation u(pi/8).  The synthesizer
searches shells of quaternions with reduced norm eta^m, shortest shell
first, so the tau-count m* of the winner tracks log_59(1/eps^3): about
three shells per decade of accuracy, each tau buying a factor 59^(1/3)
in precision.
"""

import time

from mpmath import mp

from icogate.diagonal import synth_diagonal
from icogate.golden import eta_valuation
from icogate.icosian import evaluate_word
from icogate.unitary import distance, precision_for, u_of_theta

print("target: u(pi/8), the projective T gate")
print(f"{'eps':>8}  {'tau':>4}  {'achieved':>10}  {'log59(1/eps^3)':>14}  time")
for eps in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
    start = time.perf_counter()
    with mp.workprec(precision_for(eps)):
        report = synth_diagonal(mp.pi / 8, eps)
    elapsed = time.perf_counter() - start
    theory = 3 * mp.log(1 / mp.mpf(eps)) / mp.log(59)
    print(f"{eps:>8.0e}  {report.tau_count:>4}  "
          f"{mp.nstr(report.achieved, 3):>10}  "
          f"{mp.nstr(theory, 3):>14}  {elapsed:.2f}s")

print()
eps = 1e-5
with mp.workprec(precision_for(eps)):
    report = synth_diagonal(mp.pi / 8, eps)
    print(f"the eps = {eps:g} word, {report.tau_count} taus "
          f"(norm shell eta^{eta_valuation(report.quaternion.nrd())}):")
    print(f"  {report.word}")
    coords = ", ".join(str(p) for p in report.quaternion.parts())
    print(f"its quaternion: ({coords})")
    d = distance(u_of_theta(mp.pi / 8, mp.prec),
                 evaluate_word(report.word, mp.prec))
    print(f"re-evaluated distance: {mp.nstr(d, 6)}")
