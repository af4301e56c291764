"""Command-line frontend.

Subcommands:
  mult     q-multiplicity of one highest weight: the product formula's
           expansion, checked at q=1 against the LGV determinant
  verify   duality identity suite over a box; --oracle adds the crystal check
  measure  exact probability table for a dual pair
  sample   random diagrams (dual RSK for GL, inverse CDF otherwise)
  shape    limit density and boundary samples as CSV/JSON
  compare  sampled mean boundary vs the limit shape
  tiling   lozenge tiling of a half hexagon as JSON

Exit codes: 0 success, 1 identity violation (verify, or a mult product
that differs from its determinant at q=1) or falsified exact division, 2
usage error, exceeded budget or an --out file that cannot be written.
All rationals are emitted as decimal strings; output for a fixed argv
and seed is byte-identical across runs.  measure writes its JSON a chunk
of entries at a time, in the bytes json.dumps(..., indent=2) gives the
whole payload, once the table is computed; python -m skewhowe runs main.

Importing this module loads exact, partitions and multiplicity, whose
tables the parser reads.  Each handler imports the rest of what it runs
when called, and reads its functions off the module: crystals under
verify --oracle, ensembles for measure, sample and compare, limitshape
for shape and compare, patterns for tiling.
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
                           lgv_at_one, mult_cost, verify_cost, verify_duality)

#: --pair spelling, the pair name with - for _ -> pair name
_PAIR_NAMES = {name.replace("_", "-"): name for name in PAIR_ROWS}


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

def _lambda_entries(args) -> tuple[str, list[int]]:
    """The --lambda text, stripped, and its comma-separated int entries (none
    for an empty text), or a ValueError naming the text as typed.  An entry
    is an optional - and ASCII digits: int() alone would also read 1_0, +2,
    spaces and other scripts' digits, and the label would not echo them."""
    text = (args.lam or "").strip()
    entries = text.split(",") if text else []
    digits = [entry.removeprefix("-") for entry in entries]
    try:
        if all(d.isascii() and d.isdecimal() for d in digits):
            return text, [int(entry) for entry in entries]
    except ValueError:  # past the int-to-str digit limit
        pass
    raise ValueError(f"--lambda {text} is not a comma-separated list of "
                     f"integers")


def _parse_weight(args) -> tuple[Partition, str]:
    """The --lambda partition and its label, or a ValueError naming the
    --lambda as typed unless it is a dominant weight of the n x k box.  A D
    weight of rank n > 0 may be signed in its n-th entry (past it, entries
    must be 0): it counts as |lambda|, labelled by its entries padded to n."""
    (text, parts), n = _lambda_entries(args), args.n
    signed = args.series == "D" and n
    if signed:
        if any(parts[n:]):
            raise ValueError(f"--lambda {text}: a D weight of rank {n} has no "
                             f"nonzero entry past entry {n}")
        parts = (parts + [0] * n)[:n]
    try:
        lam = Partition((*parts[:-1], abs(parts[-1])) if signed else parts)
    except ValueError:
        raise ValueError(f"--lambda {text} is not a dominant weight") from None
    if not lam.fits_in_box(n, args.k):
        raise ValueError(f"--lambda {text} does not fit in a {n}x{args.k} box")
    return lam, ",".join(map(str, parts)) if signed else str(lam)


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


#: the largest mult_cost that mult takes on: it admits BC 12x12 at
#: lambda = 3,2,1 (4,158,352, about 0.03 s), BC 30x30 (392,727,544, 1.5 s)
#: and BC 60x0 (453,028,688, 0.6 s), and refuses A 100x1 (940,018,460,
#: about 3 s), BC 40x40 (1,658,800,992; the product alone takes 8 s) and
#: A 20000x1 (about 2 x 10^20), each in constant time.
MULT_COST_BUDGET = 500_000_000


def cmd_mult(args) -> int:
    """The expansion of the series' product formula at the weight, checked
    at q = 1 against the LGV determinant (lgv_at_one).  A mismatch, or a
    division either makes that leaves a remainder, raises
    ExactDivisionError naming its stage (prod or det) and the weight."""
    spec = DualitySpec(args.series, args.n, args.k, args.p)
    lam, label = _parse_weight(args)
    cost = mult_cost(args.series, args.n, args.k, args.p)
    if cost > MULT_COST_BUDGET:
        raise ValueError(f"the {args.n}x{args.k} box's cost estimate "
                         f"{cost} exceeds the budget of {MULT_COST_BUDGET}")
    stage = "prod"
    try:
        poly = spec.row.formula("prod", lam, args.n, args.k).expand()
        stage = "det"
        det = lgv_at_one(args.series, lam, args.n, args.k, args.p)
        if poly.at_one() != det:
            raise ExactDivisionError(f"the product is {poly.at_one()} at "
                                     f"q = 1, the LGV determinant {det}")
    except ExactDivisionError as exc:
        raise ExactDivisionError(
            f"{stage} at weight ({label}): {exc}") from exc
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
    from . import crystals
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
#: (210,892,028, about 2.6-3.1 s) and BC 7x7 (66,038,476, 2.2-2.8 s), and
#: refuses BC 8x8 (421,956,592, 28 s), A 9x9 (1,276,037,814, 52 s), A 12x12
#: (224,293,750,534; 2,704,156 weights, over 45 minutes) and the thin
#: boxes whose path-table fill dominates: A 100x1 (445,039,330, 10.4 s)
#: and BC 80x1 (986,500,512, 27.9 s).
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
    from . import ensembles
    pair = _PAIR_NAMES[args.pair]
    table = ensembles.measure_table(pair, args.n, args.k)
    best = ensembles.most_probable_diagram(table)
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
    from . import ensembles
    shapes = ensembles.sample(_PAIR_NAMES[args.pair], args.n, args.k,
                              args.count, args.seed)
    lines = []
    for stream, lam in enumerate(shapes):
        lines.append(json.dumps({"partition": str(lam), "seed": args.seed,
                                 "stream": stream}))
    _emit(args, "\n".join(lines) + ("\n" if lines else ""))
    return 0


# -- shape / compare ---------------------------------------------------------

def cmd_shape(args) -> int:
    from . import limitshape
    series = args.series_shape
    end = limitshape.limit_domain(args.c, series)
    rows = []
    for i in range(args.grid + 1):
        x = end * i / args.grid
        xt = x - (args.c + 1) / 2 if series == limitshape.GL else x
        rows.append((x, limitshape.limit_f(x, args.c, series),
                     limitshape.rho(xt, args.c)))
    if args.format == "csv":
        text = "x,f,rho\n" + "\n".join(f"{x!r},{f!r},{r!r}" for x, f, r in rows) + "\n"
    else:
        text = _json_dumps({"series": series, "c": args.c,
                            "rows": [[x, f, r] for x, f, r in rows]})
    _emit(args, text)
    return 0


def cmd_compare(args) -> int:
    from . import ensembles, limitshape
    if args.pair != "GL":
        raise ValueError("compare currently supports the GL pair")
    if not args.n or not args.k:
        raise ValueError(f"compare needs a nonempty box, not {args.n}x{args.k}")
    c = args.c if args.c is not None else args.k / args.n
    limitshape.limit_domain(c, limitshape.GL)  # reject a bad c before sampling
    shapes = ensembles.sample("GL", args.n, args.k, args.count, args.seed)
    curves = [limitshape.diagram_boundary(s, args.n) for s in shapes]
    dist = limitshape.sup_distance(limitshape.mean_boundary(curves), c)
    _emit(args, _json_dumps({"sup_distance": dist, "n": args.n, "k": args.k,
                             "count": args.count, "seed": args.seed, "c": c}))
    return 0


# -- tiling --------------------------------------------------------------------

def cmd_tiling(args) -> int:
    from . import patterns
    text, parts = _lambda_entries(args)
    try:
        boundary = Partition(parts)
    except ValueError:
        raise ValueError(f"--lambda {text} is not a partition") from None
    if not boundary.fits_in_box(args.k, args.n):
        raise ValueError(f"--lambda {text} does not fit in a {args.k}x{args.n} "
                         f"box: at most k = {args.k} parts, none above "
                         f"n = {args.n}")
    if args.count_only:
        count = patterns.count_gt(boundary, args.k)
        _emit(args, _json_dumps({"n": args.n, "k": args.k,
                                 "boundary": str(boundary), "tilings": count}))
        return 0
    total, pattern = patterns.count_gt_and_pattern_at(boundary, args.k,
                                                      args.index)
    tiling = patterns.gt_to_lozenge(pattern, args.n, args.k)
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
