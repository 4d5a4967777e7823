"""The icogate command line tool.

Subcommands map one-to-one onto the library pipelines:

  synth       -- arbitrary unitary to gate word (named gate or matrix)
  synth-diag  -- diagonal rotation u(theta) to gate word
  exact       -- exact factorization round-trip for a quaternion or word
  verify-ne   -- the finite norm-Euclidean verification for Z[i, phi]
  selftest    -- quick end-to-end invariant checks

Exit codes: 0 success, 1 selftest failure or verify-ne violations,
2 depth budget exhausted, 3 malformed or unsatisfiable input.  synth
and synth-diag work at precision_for(--eps), as the library does.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction

from mpmath import mp, mpf

from . import __version__
from .errors import BudgetExhausted, IcogateError, MalformedInput
from .gaussgolden import verify_norm_euclidean
from .general import SynthConfig, synth_general
from .diagonal import SynthReport, synth_diagonal
from .golden import GoldenInt
from .icosian import (GateWord, GoldenQuat, canonical, exact_synthesize,
                      generate_c60, tau_count, word_to_quat)
from .unitary import (GATE_NAMES, ProjUnitary, named_gate, parse_complex,
                      precision_for)

__all__ = ["main"]

_PI_FRACTION = re.compile(r"^([+-]?)(\d+)?\s*\*?\s*pi(?:\s*/\s*(\d+))?$")


def parse_angle(text: str):
    """An angle in radians, accurate to the working precision mp.prec.

    A fraction of pi like pi/8, -3pi/4 or 2*pi/5 is reduced exactly
    modulo 2 pi, a period of u(theta), and only then evaluated.  A
    decimal is read with as many extra bits as it has integer bits, so
    the fold modulo pi still has mp.prec bits after the point."""
    flat = text.strip().lower()
    m = _PI_FRACTION.match(flat)
    if m:
        sign, num, den = m.groups()
        num, den = int(num or 1), int(den or 1)
        if den == 0:
            raise MalformedInput(f"zero denominator in angle {text!r}")
        value = mp.pi * (num % (2 * den)) / den
        return -value if sign == "-" else value
    try:
        value = mpf(flat)
    except ValueError:
        raise MalformedInput(f"cannot parse angle {text!r}") from None
    except ZeroDivisionError:
        raise MalformedInput(f"zero denominator in angle {text!r}") from None
    if not mp.isfinite(value):
        return value
    with mp.workprec(mp.prec + max(0, mp.mag(value))):
        return mpf(flat)


def parse_quat(tokens: list[str]) -> GoldenQuat:
    """Four a,b coordinate pairs, each meaning a + b*phi."""
    if len(tokens) != 4:
        raise MalformedInput("expected four a,b pairs")
    parts = []
    for tok in tokens:
        pieces = tok.split(",")
        if len(pieces) != 2:
            raise MalformedInput(f"bad coordinate pair {tok!r}")
        try:
            parts.append(GoldenInt(int(pieces[0]), int(pieces[1])))
        except ValueError:
            raise MalformedInput(f"bad coordinate pair {tok!r}") from None
    return GoldenQuat(*parts)


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _report_payload(report: SynthReport, epsilon: float, elapsed: float) -> dict:
    # precision_bits and version are what a replay needs besides the input
    return {
        "word": report.word.to_json(),
        "tau_count": report.word.tau_count,
        "central_tau": report.central_tau,
        "outer_tau": list(report.outer_tau),
        "achieved": float(report.achieved),
        "k": report.k,
        "m": tau_count(report.quaternion),
        "abandoned_count": report.abandoned_count,
        "epsilon": epsilon,
        "elapsed_seconds": round(elapsed, 3),
        "precision_bits": precision_for(epsilon),
        "version": __version__,
    }


def _cmd_synth(args) -> int:
    if (args.gate is None) == (args.matrix is None):
        raise MalformedInput("give exactly one of --gate or --matrix")
    bits = precision_for(args.eps)
    if args.gate is not None:
        target = named_gate(args.gate, bits)
    else:
        entries = [parse_complex(tok, bits) for tok in args.matrix]
        target = ProjUnitary((entries[:2], entries[2:]), bits)
    cfg = SynthConfig(args.eps, strict=args.strict)
    start = time.perf_counter()
    report = synth_general(target, cfg)
    elapsed = time.perf_counter() - start
    _emit(args, _report_payload(report, args.eps, elapsed), [
        f"word        {report.word}",
        f"tau-count   {report.word.tau_count} "
        f"(central {report.central_tau}, outer {report.outer_tau})",
        f"achieved    {mp.nstr(report.achieved, 6)}",
        f"k           {report.k}",
        f"abandoned   {report.abandoned_count}",
        f"elapsed     {elapsed:.2f}s",
    ])
    return 0


def _cmd_synth_diag(args) -> int:
    bits = precision_for(args.eps)
    with mp.workprec(bits):
        theta = parse_angle(args.theta)
    start = time.perf_counter()
    report = synth_diagonal(theta, args.eps, precision_bits=bits)
    elapsed = time.perf_counter() - start
    payload = _report_payload(report, args.eps, elapsed)
    _emit(args, payload, [
        f"word        {report.word}",
        f"tau-count   {report.word.tau_count}",
        f"achieved    {mp.nstr(report.achieved, 6)}",
        f"m           {payload['m']}",
        f"abandoned   {report.abandoned_count}",
        f"elapsed     {elapsed:.2f}s",
    ])
    return 0


def _cmd_exact(args) -> int:
    if (args.quat is None) == (args.word is None):
        raise MalformedInput("give exactly one of --quat or --word")
    if args.quat is not None:
        q = parse_quat(args.quat)
    else:
        q = word_to_quat(GateWord.parse(args.word))
    word = exact_synthesize(q)
    back = word_to_quat(word)
    if canonical(back) != canonical(q):
        raise IcogateError("round-trip mismatch")  # unreachable by design
    payload = {
        "word": word.to_json(),
        "tau_count": word.tau_count,
        "canonical": [[x.a, x.b] for x in canonical(q).parts()],
    }
    _emit(args, payload, [
        f"word        {word}",
        f"tau-count   {word.tau_count}",
        "round-trip  ok",
    ])
    return 0


def _cmd_verify_ne(args) -> int:
    try:
        radius = Fraction(args.r)
    except (ValueError, ZeroDivisionError):
        raise MalformedInput(f"bad radius {args.r!r}") from None
    start = time.perf_counter()
    violations = verify_norm_euclidean(args.n, radius)
    elapsed = time.perf_counter() - start
    payload = {
        "grid_n": args.n,
        "r": str(radius),
        "violations": [[str(c) for c in v] for v in violations],
        "elapsed_seconds": round(elapsed, 3),
    }
    lines = [f"grid       {args.n} (spacing 1/{args.n}), radius {radius}",
             f"violations {len(violations)}",
             f"elapsed    {elapsed:.2f}s"]
    lines += [f"  at {v}" for v in violations]
    _emit(args, payload, lines)
    return 0 if not violations else 1


def _selftest_checks():
    yield "C60 closure has 60 classes", lambda: len(generate_c60()) == 60
    def roundtrip():
        word = GateWord.parse("(r)t(srs)t(rr)t(s)")
        q = word_to_quat(word)
        again = exact_synthesize(q)
        return (canonical(word_to_quat(again)) == canonical(q)
                and again.tau_count == tau_count(q))
    yield "exact synthesis round-trip", roundtrip
    def diag():
        report = synth_diagonal(mp.pi / 8, 1e-3)
        return report.achieved < mpf("1e-3") and report.tau_count <= 10
    yield "diagonal synthesis at 1e-3", diag
    def general():
        report = synth_general(named_gate("H", 160), SynthConfig(1e-3))
        return report.achieved < mpf("1.5e-3")
    yield "general synthesis at 1e-3", general
    def ne():
        return not verify_norm_euclidean(6, Fraction(1, 12))
    yield "norm-Euclidean check", ne


def _cmd_selftest(args) -> int:
    failures = 0
    for name, check in _selftest_checks():
        try:
            ok = check()
        except Exception as exc:  # a crash is a failure, not an abort
            ok = False
            name = f"{name} ({type(exc).__name__}: {exc})"
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        failures += 0 if ok else 1
    return 0 if failures == 0 else 1


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # read a token with one leading minus (-3pi/4, -1/2, -0.6+0.8i,
        # -i) as a value, as argparse reads -1: no option here is spelt
        # with one dash but -h, which argparse matches before this test
        self._negative_number_matcher = re.compile(r"^-[^-]")

    def error(self, message):
        raise MalformedInput(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="icogate", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="approximate an arbitrary unitary")
    synth.add_argument("--gate", choices=GATE_NAMES)
    synth.add_argument("--matrix", nargs=4, metavar="ENTRY",
                       help="row-major entries like 0.6+0.8i or 1/2")
    synth.add_argument("--eps", type=float, required=True)
    synth.add_argument("--strict", action="store_true",
                       help="return only a word within --eps, measured "
                            "with a margin, not one below 1.5 eps")
    synth.add_argument("--json", action="store_true")
    synth.set_defaults(func=_cmd_synth)

    diag = sub.add_parser("synth-diag",
                          help="approximate the rotation u(theta)")
    diag.add_argument("--theta", required=True,
                      help="radians, or a fraction of pi like pi/8")
    diag.add_argument("--eps", type=float, required=True)
    diag.add_argument("--json", action="store_true")
    diag.set_defaults(func=_cmd_synth_diag)

    exact = sub.add_parser("exact", help="factor exactly and round-trip")
    exact.add_argument("--quat", nargs=4, metavar="A,B",
                       help="coordinates as a,b pairs meaning a + b*phi")
    exact.add_argument("--word", help="a word like (r)t(srs) or rtsrs")
    exact.add_argument("--json", action="store_true")
    exact.set_defaults(func=_cmd_exact)

    ne = sub.add_parser("verify-ne",
                        help="finite check that Z[i, phi] is norm-Euclidean")
    ne.add_argument("--n", type=int, default=6, help="grid points per axis")
    ne.add_argument("--r", default="1/12", help="ball radius, a fraction")
    ne.add_argument("--json", action="store_true")
    ne.set_defaults(func=_cmd_verify_ne)

    self_p = sub.add_parser("selftest", help="run quick invariant checks")
    self_p.set_defaults(func=_cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except BudgetExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IcogateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
