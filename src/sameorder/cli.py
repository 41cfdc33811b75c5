"""Command line front end.

Subcommands: alpha, spectrum, invariants (per-expression queries), verify
theorem / verify counterexample (the packaged claims), and hunt (collision
search).  Exit codes: 0 when everything passes, 1 on an assertion or
computation failure (any unexpected exception included, reported in one
line), 2 on usage or expression errors.
"""

from __future__ import annotations

import argparse
import sys

from .core import DEFAULT_CAP, Spectrum, spectrum_checks
from .errors import (
    CapExceededError,
    DslError,
    InvalidParameterError,
    NoWitnessError,
    OrderMismatchError,
    VerificationError,
)
from .reports import render_json, report_for
from .verify import counterexample_report, hunt_report, theorem_report


def _positive_int(text: str) -> int:
    """argparse type for counts and limits: ASCII digits, at least 1."""
    if not (text.isascii() and text.isdecimal()) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", dest="as_json",
                        help="emit a JSON document instead of text")
    common.add_argument("--max-elements", metavar="N", type=_positive_int, default=DEFAULT_CAP,
                        help="abort enumeration beyond this many elements "
                             f"(default {DEFAULT_CAP})")
    # per-expression queries read the report cache; multi-group commands
    # take a worker count
    cached = argparse.ArgumentParser(add_help=False, parents=[common])
    cached.add_argument("--cache-dir", metavar="PATH", default=None,
                        help="directory for the per-expression report cache")
    pooled = argparse.ArgumentParser(add_help=False, parents=[common])
    pooled.add_argument("--threads", metavar="N", type=_positive_int, default=1,
                        help="worker threads for multi-group commands")

    parser = argparse.ArgumentParser(
        prog="sameorder",
        description="same-order class sizes of finite groups: spectra, "
                    "alpha types, verification, collision hunting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("alpha", parents=[cached],
                       help="same-order type of a group expression")
    p.add_argument("expr", metavar="EXPR")

    p = sub.add_parser("spectrum", parents=[cached],
                       help="full order spectrum and flags of a group expression")
    p.add_argument("expr", metavar="EXPR")

    p = sub.add_parser("invariants", parents=[cached],
                       help="run structural checks on a group expression")
    p.add_argument("expr", metavar="EXPR")

    p = sub.add_parser("verify", parents=[pooled],
                       help="reproduce and check the packaged claims")
    p.add_argument("what", choices=("theorem", "counterexample"))

    p = sub.add_parser("hunt", parents=[pooled],
                       help="search products of standard families for "
                            "same-order-type collisions")
    p.add_argument("--order", type=_positive_int, required=True)
    p.add_argument("--max-factors", type=_positive_int, default=2)

    return parser


def _fmt_sizes(values) -> str:
    return "{" + ", ".join(str(v) for v in values) + "}"


def _cmd_alpha(args) -> int:
    rep = report_for(args.expr, args.max_elements, args.cache_dir)
    if args.as_json:
        out = {k: rep[k] for k in ("expression", "order", "alpha", "alpha_cardinality")}
        sys.stdout.write(render_json(out))
    else:
        print(f"alpha({rep['expression']}) = {_fmt_sizes(rep['alpha'])}  "
              f"cardinality {rep['alpha_cardinality']}")
    return 0


def _cmd_spectrum(args) -> int:
    rep = report_for(args.expr, args.max_elements, args.cache_dir)
    if args.as_json:
        sys.stdout.write(render_json(rep))
        return 0
    print(f"{rep['expression']}: order {rep['order']}")
    for t, count in sorted(rep["spectrum"].items(), key=lambda kv: int(kv[0])):
        print(f"  elements of order {t}: {count}")
    print(f"alpha = {_fmt_sizes(rep['alpha'])}  cardinality {rep['alpha_cardinality']}")
    flags = []
    flags.append("simple" if rep["simple"] else "not simple")
    flags.append("solvable" if rep["solvable"] else "not solvable")
    flags.append(f"center order {rep['center_order']}")
    print(", ".join(flags))
    return 0


def _cmd_invariants(args) -> int:
    rep = report_for(args.expr, args.max_elements, args.cache_dir)
    spec = Spectrum({int(t): c for t, c in rep["spectrum"].items()}, rep["order"])
    checks = spectrum_checks(spec)
    if args.as_json:
        out = {
            "expression": rep["expression"],
            "order": rep["order"],
            "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
            "all_ok": all(ok for _, ok, _ in checks),
        }
        sys.stdout.write(render_json(out))
    else:
        print(f"{rep['expression']}: order {rep['order']}")
        for name, ok, detail in checks:
            print(f"  {'PASS' if ok else 'FAIL'}  {name} ({detail})")
    return 0 if all(ok for _, ok, _ in checks) else 1


def _print_theorem(rep) -> None:
    print(rep["claim"])
    for r in rep["groups"]:
        w = r["odd_prime_witness"]
        print(f"  {r['expression']:<10} order {r['order']:>6}  primes "
              f"{_fmt_sizes(r['prime_divisors'])}  |alpha| = {r['alpha_cardinality']}  "
              f"simple  s_{w['p']}={w['s_p']} s_{w['q']}={w['s_q']}")
    names = ", ".join(rep["alpha_cardinality_five"])
    print(f"groups with exactly five class sizes: {names}")
    print("verified")


def _print_counterexample(rep) -> None:
    print(rep["claim"])
    for r in rep["groups"]:
        kind = "simple" if r["simple"] else ("solvable" if r["solvable"] else "neither")
        print(f"  {r['expression']:<20} order {r['order']}  "
              f"alpha {_fmt_sizes(r['alpha'])}  {kind}")
    for c in rep["certificates"]:
        cert = c["certificate"]
        at = f" at t={cert['t']}" if cert.get("t") is not None else ""
        print(f"  certificate vs {c['against']}: {cert['reason']}{at} "
              f"({cert['left']} vs {cert['right']})")
    d = rep["disputed_counts"]
    print(f"disputed counts for {d['expression']}:")
    for e in d["entries"]:
        print(f"  order {e['order']}: claimed {e['claimed']}, "
              f"enumerated {e['enumerated']}")
    print(f"  note: {d['note']}")
    print("verified")


def _cmd_verify(args) -> int:
    if args.what == "theorem":
        rep = theorem_report(args.max_elements, args.threads)
        if args.as_json:
            sys.stdout.write(render_json(rep))
        else:
            _print_theorem(rep)
    else:
        rep = counterexample_report(args.max_elements, args.threads)
        if args.as_json:
            sys.stdout.write(render_json(rep))
        else:
            _print_counterexample(rep)
    return 0


def _cmd_hunt(args) -> int:
    rep = hunt_report(args.order, args.max_factors, args.max_elements, args.threads)
    if args.as_json:
        sys.stdout.write(render_json(rep))
        return 0
    if "note" in rep:
        print(rep["note"])
        return 0
    print(f"order {rep['order']}: simple group {rep['simple']}, "
          f"alpha {_fmt_sizes(rep['simple_alpha'])}")
    print(f"searched {rep['candidates_searched']} candidate expressions "
          f"(up to {rep['max_factors']} factors)")
    if not rep["collisions"]:
        print("no collisions found in the searched families")
        return 0
    for c in rep["collisions"]:
        cert = c["certificate"]
        at = f" at t={cert['t']}" if cert.get("t") is not None else ""
        print(f"  collision: {c['expression']:<24} alpha {_fmt_sizes(c['alpha'])}  "
              f"certificate {cert['reason']}{at}")
    return 0


_DISPATCH = {
    "alpha": _cmd_alpha,
    "spectrum": _cmd_spectrum,
    "invariants": _cmd_invariants,
    "verify": _cmd_verify,
    "hunt": _cmd_hunt,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (DslError, InvalidParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (VerificationError, OrderMismatchError, NoWitnessError,
            CapExceededError) as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # an engine fault: one line, never a traceback
        detail = " ".join(str(exc).split())
        print(f"failed: {type(exc).__name__}: {detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
