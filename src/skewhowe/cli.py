"""Command-line frontend.

Subcommands:
  mult     q-multiplicity of one highest weight (polynomial and q=1 value)
  verify   duality identity suite over a box; --oracle adds the crystal check
  measure  exact probability table for a dual pair
  sample   random diagrams (dual RSK for GL, inverse CDF otherwise)
  shape    limit density and boundary samples as CSV/JSON
  compare  sampled mean boundary vs the limit shape
  tiling   lozenge tiling of a half hexagon as JSON

Exit codes: 0 success, 1 identity violation (verify) or falsified exact
division, 2 usage error, exceeded budget or an --out file that cannot be
written.
All rationals are emitted as decimal strings; output for a fixed argv
and seed is byte-identical across runs.  measure writes its JSON a chunk
of entries at a time, in the bytes json.dumps(..., indent=2) gives the
whole payload, once the table is computed; python -m skewhowe runs main.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from fractions import Fraction

from .exact import ExactDivisionError, rational_to_json
from .partitions import Partition
from .multiplicity import (PAIR_ROWS, VERIFY_ROWS, DualityReport, DualitySpec,
                           lgv_cost, lgv_determinant, verify_cost,
                           verify_duality)
from . import crystals
from .patterns import count_gt, count_gt_and_pattern_at, gt_to_lozenge
from .ensembles import (measure_table, sample as draw_samples,
                        most_probable_diagram)
from . import limitshape
from .limitshape import (diagram_boundary, limit_f, limit_domain,
                         mean_boundary, rho, sup_distance)

#: --pair spelling -> pair name
_PAIR_NAMES = {row.flag: name for name, row in PAIR_ROWS.items()}


@contextmanager
def _output(args):
    """The --out file, opened for writing, or stdout."""
    if args.out:
        with open(args.out, "w") as fh:
            yield fh
    else:
        yield sys.stdout


def _emit(args, text: str):
    with _output(args) as fh:
        fh.write(text)


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=False) + "\n"


# -- mult ---------------------------------------------------------------

def _parse_weight(args) -> tuple[Partition, str]:
    """The --lambda partition and its label.  A D weight of rank n > 0 may
    be signed in its n-th entry: its multiplicity is that of the partition
    of absolute values, which also validates it, and its label is the
    signed entries padded to n."""
    if args.series != "D" or not args.n:
        lam = Partition.parse(args.lam or "")
        return lam, str(lam)
    text = (args.lam or "").strip()
    parts = [int(p) for p in text.split(",")] if text else []
    parts += [0] * (args.n - len(parts))
    return Partition((*parts[:-1], abs(parts[-1]))), ",".join(map(str, parts))


#: bits of the numerator or denominator of a --q-at value; under it every
#: value prints within the default int-to-str limit of 4,300 digits
_Q_AT_BITS = 14_000
#: digits of a --q-at literal and of its decimal exponent (10^4200 has
#: 13,952 bits)
_Q_AT_DIGITS = 4_200


def _q_at(poly, q: Fraction) -> Fraction:
    """q, once the value of poly there is known to fit in _Q_AT_BITS: with
    q = a/b, the numerator and denominator of poly(q) over the common
    denominator are at most sum|c| * max(|a|, b)^span."""
    top = poly.min_exp + len(poly.coeffs) - 1
    span = max(top, 0) - min(poly.min_exp, 0)
    bits = (span * max(q.numerator.bit_length(), q.denominator.bit_length())
            + sum(map(abs, poly.coeffs)).bit_length())
    if bits > _Q_AT_BITS:
        raise ValueError(f"--q-at: the value would take up to {bits} bits, "
                         f"over the budget of {_Q_AT_BITS}")
    return q


#: the largest lgv_cost that mult takes on: it admits BC 12x12 at
#: lambda = 3,2,1 (43,296, about 7 s) and D 12x12 (45,816, 9 s), and
#: refuses BC 13x13 (60,164, 20 s).  A unit triangular matrix costs its
#: rows' largest degrees alone: BC 25x0 (4,600, 0.2 s) and D 25x0 (4,900,
#: 0.3 s) are admitted, and BC 50x0 (39,200, 11 s) too.
MULT_COST_BUDGET = 50_000


def cmd_mult(args) -> int:
    DualitySpec(args.series, args.n, args.k, args.p)  # validates (series, p)
    lam, label = _parse_weight(args)
    cost = lgv_cost(args.series, lam, args.n, args.k, args.p)
    if cost > MULT_COST_BUDGET:
        raise ValueError(f"the {args.n}x{args.k} determinant's cost estimate "
                         f"{cost} exceeds the budget of {MULT_COST_BUDGET}")
    poly = lgv_determinant(args.series, lam, args.n, args.k, args.p)
    payload = {
        "series": args.series, "n": args.n, "k": args.k, "p": args.p,
        "lambda": label, "multiplicity": poly.at_one(),
        "q_poly": poly.to_json(),
    }
    if args.q_at is not None:
        value = poly(_q_at(poly, Fraction(args.q_at)))
        payload["q_at"] = {"q": args.q_at, **rational_to_json(value)}
    if args.format == "json":
        _emit(args, _json_dumps(payload))
    else:
        lines = [f"multiplicity at q=1: {poly.at_one()}"]
        if args.q_poly or args.q_at is None:
            lines.append(f"q-polynomial: {poly}")
        if args.q_at is not None:
            lines.append(f"value at q={args.q_at}: {value}")
        _emit(args, "\n".join(lines) + "\n")
    return 0


# -- verify --------------------------------------------------------------

def _oracle_check(report: DualityReport) -> list[str]:
    """Compare the report's multiplicities at q=1 with crystal
    highest-weight counts."""
    spec = report.spec
    row, n, k = spec.row, spec.n, spec.k
    counts = crystals.multiplicity_oracle(row.g1.lie, n, row.power(k))
    label = "A" if spec.series == "A" else f"{spec.series} p={spec.p}"
    problems = []
    for lam, got in report.multiplicities:
        want = counts.get(tuple(2 * v + row.g1.spin for v in lam.padded(n)), 0)
        if got != want:
            problems.append(f"{label} {lam}: formula {got} != oracle {want}")
    return problems


#: the largest verify_cost that verify takes on: it admits A 8x8
#: (210,862,080, about 4.5 s) and BC 7x7 (65,921,856, 3.5 s), and refuses
#: BC 8x8 (421,724,160, 28 s), A 9x9 (1,275,983,280, 52 s) and A 12x12
#: (224,293,515,264; 2,704,156 weights, over 45 minutes).
VERIFY_COST_BUDGET = 300_000_000


def cmd_verify(args) -> int:
    spec = DualitySpec(args.series, args.n, args.k, args.p)
    cost = verify_cost(spec)
    if cost > VERIFY_COST_BUDGET:
        raise ValueError(f"the {args.n}x{args.k} box's cost estimate {cost} "
                         f"exceeds the budget of {VERIFY_COST_BUDGET}")
    report = verify_duality(spec)
    lines = [f"checked {report.checked} weights in the {args.n}x{args.k} box",
             f"dimension total {report.dimension_total} "
             f"(expected {report.dimension_expected})"]
    ok = report.ok
    for v in report.violations:
        lines.append(f"VIOLATION {v.lam} [{v.stage}]: {v.lhs} != {v.rhs}")
    if args.oracle:
        problems = _oracle_check(report)
        lines.append(f"crystal oracle: {'ok' if not problems else 'FAILED'}")
        lines.extend(problems)
        ok = ok and not problems
    lines.append("all identities hold" if ok else "identity violations found")
    _emit(args, "\n".join(lines) + "\n")
    return 0 if ok else 1


# -- measure / sample ------------------------------------------------------

# The bytes json.dumps(..., indent=2) gives the measure payload, piece by piece.
_MEASURE_HEAD = '{{\n  "pair": {},\n  "n": {},\n  "k": {},\n  "entries": [\n'
_MEASURE_ENTRY = ('    {{\n      "partition": "{}",\n      "num": "{}",\n'
                  '      "den": "{}"\n    }}')
_MEASURE_TAIL = '\n  ],\n  "most_probable": "{}"\n}}\n'
_MEASURE_CHUNK = 1024  # entries per write


def cmd_measure(args) -> int:
    """The table as JSON: its entries in sorted-parts order, each weight
    w / 2^N reduced by w's trailing zero bits, written a chunk at a time,
    then the table's heaviest entry as the most probable diagram.  The
    table comes before --out is opened."""
    pair = _PAIR_NAMES[args.pair]
    table = measure_table(pair, args.n, args.k)
    best = most_probable_diagram(table)
    exponent, weights = table.exponent, table.entries
    with _output(args) as fh:
        fh.write(_MEASURE_HEAD.format(json.dumps(pair), args.n, args.k))
        keys = sorted(weights)
        for start in range(0, len(keys), _MEASURE_CHUNK):
            chunk = []
            for parts in keys[start:start + _MEASURE_CHUNK]:
                w = weights[parts]
                zeros = min((w & -w).bit_length() - 1, exponent) if w else exponent
                chunk.append(_MEASURE_ENTRY.format(
                    ",".join(map(str, parts)), w >> zeros, 1 << (exponent - zeros)))
            fh.write(("" if start == 0 else ",\n") + ",\n".join(chunk))
        fh.write(_MEASURE_TAIL.format(best))
    return 0


def cmd_sample(args) -> int:
    shapes = draw_samples(_PAIR_NAMES[args.pair], args.n, args.k, args.count,
                          args.seed)
    lines = []
    for stream, lam in enumerate(shapes):
        lines.append(json.dumps({"partition": str(lam), "seed": args.seed,
                                 "stream": stream}))
    _emit(args, "\n".join(lines) + ("\n" if lines else ""))
    return 0


# -- shape / compare ---------------------------------------------------------

def cmd_shape(args) -> int:
    series = args.series_shape
    end = limit_domain(args.c, series)
    rows = []
    for i in range(args.grid + 1):
        x = end * i / args.grid
        xt = x - (args.c + 1) / 2 if series == limitshape.GL else x
        rows.append((x, limit_f(x, args.c, series), rho(xt, args.c)))
    if args.format == "csv":
        text = "x,f,rho\n" + "\n".join(f"{x!r},{f!r},{r!r}" for x, f, r in rows) + "\n"
    else:
        text = _json_dumps({"series": series, "c": args.c,
                            "rows": [[x, f, r] for x, f, r in rows]})
    _emit(args, text)
    return 0


def cmd_compare(args) -> int:
    if args.pair != "GL":
        raise ValueError("compare currently supports the GL pair")
    if not args.n or not args.k:
        raise ValueError(f"compare needs a nonempty box, not {args.n}x{args.k}")
    c = args.c if args.c is not None else args.k / args.n
    limit_domain(c, limitshape.GL)  # reject a bad c before sampling
    shapes = draw_samples("GL", args.n, args.k, args.count, args.seed)
    curves = [diagram_boundary(s, args.n) for s in shapes]
    dist = sup_distance(mean_boundary(curves), c)
    _emit(args, _json_dumps({"sup_distance": dist, "n": args.n, "k": args.k,
                             "count": args.count, "seed": args.seed, "c": c}))
    return 0


# -- tiling --------------------------------------------------------------------

def cmd_tiling(args) -> int:
    boundary = Partition.parse(args.lam or "")
    if args.count_only:
        _emit(args, _json_dumps({"n": args.n, "k": args.k,
                                 "boundary": str(boundary),
                                 "tilings": count_gt(boundary, args.k)}))
        return 0
    total, pattern = count_gt_and_pattern_at(boundary, args.k, args.index)
    tiling = gt_to_lozenge(pattern, args.n, args.k)
    payload = tiling.to_json()
    payload["tilings"] = total
    payload["gt_pattern"] = pattern.to_json()
    _emit(args, _json_dumps(payload))
    return 0


# -- parser -------------------------------------------------------------------

def _int_at_least(low: int):
    """argparse type: an int that is at least low."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below {low}")
        return value
    parse.__name__ = "int"  # so a non-int reads "invalid int value"
    return parse


def _rational(text: str) -> str:
    """argparse type: text that Fraction reads as a rational, kept as typed
    so the output echoes it.  A literal of more than _Q_AT_DIGITS digits,
    or a decimal exponent past it, is refused before Fraction builds it."""
    exponent = text.lower().partition("e")[2].strip().lstrip("+-")
    exponent = exponent.replace("_", "")
    if (sum(map(str.isdecimal, text)) > _Q_AT_DIGITS
            or exponent.isdecimal() and int(exponent) > _Q_AT_DIGITS):
        raise argparse.ArgumentTypeError(
            f"over the budget of {_Q_AT_DIGITS} digits and "
            f"{_Q_AT_DIGITS} in the decimal exponent")
    try:
        Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a rational") from None
    return text


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="skewhowe",
        description="Exact tensor-power multiplicities, diagram measures, "
                    "and limit shapes for the classical dual pairs.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, pair=False, series=False):
        if series:
            p.add_argument("--series", required=True,
                           choices=sorted({s for s, _ in VERIFY_ROWS}))
            p.add_argument("--p", type=int, choices=(0, 1), default=0)
        if pair:
            p.add_argument("--pair", choices=tuple(_PAIR_NAMES), default="GL")
        p.add_argument("--n", type=_int_at_least(0), required=True)
        p.add_argument("--k", type=_int_at_least(0), required=True)
        p.add_argument("--out", default=None)

    p = sub.add_parser("mult", help="q-multiplicity of one weight")
    common(p, series=True)
    p.add_argument("--lambda", dest="lam", default="")
    p.add_argument("--q-at", dest="q_at", type=_rational, default=None,
                   help="also evaluate at this rational q")
    p.add_argument("--q-poly", action="store_true",
                   help="print the polynomial in human-readable form")
    p.set_defaults(func=cmd_mult, format="text")
    p.add_argument("--json", dest="format", action="store_const", const="json")

    p = sub.add_parser("verify", help="duality identity suite over a box")
    common(p, series=True)
    p.add_argument("--oracle", action="store_true",
                   help="also compare with crystal highest-weight counts")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("measure", help="exact probability table")
    common(p, pair=True)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("sample", help="draw random diagrams")
    common(p, pair=True)
    p.add_argument("--count", type=_int_at_least(0), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("shape", help="limit shape and density samples")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--series", dest="series_shape", choices=("GL", "HALF"),
                   default="GL")
    p.add_argument("--grid", type=_int_at_least(1), default=200)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.set_defaults(func=cmd_shape)

    p = sub.add_parser("compare", help="sampled mean boundary vs limit shape")
    common(p, pair=True)
    p.add_argument("--count", type=_int_at_least(1), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--c", type=float, default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("tiling", help="half-hexagon lozenge tiling")
    common(p)
    p.add_argument("--lambda", dest="lam", default="",
                   help="boundary partition of the half hexagon")
    p.add_argument("--index", type=int, default=0,
                   help="which tiling in enumeration order")
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=cmd_tiling)

    return top


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ExactDivisionError as exc:
        # an asserted identity left a remainder or failed: a falsified identity
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
