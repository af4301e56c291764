"""Run the skewhowe CLI once with per-layer spans recorded from outside.

    python3 bench/tracer.py METRICS.json CLI-ARGS...

The public functions listed in ``install`` are replaced, in every loaded
``skewhowe`` module that holds them (including names imported directly,
such as ``multiplicity.q_binomial`` or ``cli.draw_samples``), by wrappers
that count calls and time them.  Nothing under ``src/`` changes.  The CLI
then runs as the console script would, its stdout and exit code untouched,
and the layer metrics are written to METRICS.json.

A span's self time is its duration minus the time its traced child spans
cover.  Observers that record argument properties (operand sizes,
distinct arguments) run outside every span, and their cost is excluded
from the parent's self time as well.
"""

from __future__ import annotations

import json
import sys
import time


class Span:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.spans: dict[str, Span] = {}
        # One accumulator per open span: time covered by its children.
        self._child_time = [0.0]

    def span(self, name: str) -> Span:
        return self.spans.setdefault(name, Span())

    def wrap(self, name: str, fn, observe=None):
        span = self.span(name)
        child_time = self._child_time
        clock = time.perf_counter

        def traced(*args, **kwargs):
            child_time.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                covered = child_time.pop()
                child_time[-1] += dt
                span.calls += 1
                span.total += dt
                span.self_time += dt - covered
            if observe is not None:
                t1 = clock()
                observe(args, result)
                child_time[-1] += clock() - t1
            return result

        traced.__wrapped__ = fn
        return traced


class Observations:
    """Exact counts taken from arguments and results."""

    def __init__(self):
        self.mul_operands = 0
        self.mul_coeffs = 0
        self.mul_max_bits = 0
        self.q_binomial_args: set = set()
        self.det_matrices: set = set()
        self.table_entries = 0

    def mul(self, args, _result):
        for operand in args[:2]:
            coeffs = getattr(operand, "coeffs", (operand,))
            self.mul_operands += 1
            self.mul_coeffs += len(coeffs)
            if coeffs:
                bits = max(max(coeffs), -min(coeffs)).bit_length()
                if bits > self.mul_max_bits:
                    self.mul_max_bits = bits

    def q_binomial(self, args, _result):
        self.q_binomial_args.add(args)

    def determinant(self, args, _result):
        self.det_matrices.add(tuple(tuple(row) for row in args[0]))

    def measure_table(self, _args, result):
        self.table_entries += len(result.entries)


def _replace_everywhere(fn, wrapped):
    """Point every skewhowe module attribute bound to fn at wrapped."""
    for name, module in list(sys.modules.items()):
        if name != "skewhowe" and not name.startswith("skewhowe."):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, wrapped)


def install(tracer: Tracer, obs: Observations) -> None:
    """Wrap the traced public functions; the CLI must already be imported."""
    from skewhowe import ensembles, exact, limitshape, multiplicity

    QLaurent = exact.QLaurent
    mul = tracer.wrap("exact.mul", QLaurent.__mul__, obs.mul)
    QLaurent.__mul__ = QLaurent.__rmul__ = mul
    QLaurent.divide_exact = tracer.wrap("exact.divide_exact",
                                        QLaurent.divide_exact)

    functions = [
        (exact, "q_binomial", "exact.q_binomial", obs.q_binomial),
        (exact, "catalan_triangle_q", "exact.catalan_triangle_q", None),
        (multiplicity, "qlaurent_determinant",
         "multiplicity.qlaurent_determinant", obs.determinant),
        (multiplicity, "mult_prod_A_q", "multiplicity.mult_prod", None),
        (multiplicity, "mult_prod_BC_q", "multiplicity.mult_prod", None),
        (multiplicity, "mult_prod_D_q", "multiplicity.mult_prod", None),
        (multiplicity, "qdim", "multiplicity.qdim", None),
        (multiplicity, "weyl_dimension", "multiplicity.weyl_dimension", None),
        (ensembles, "sample", "ensembles.sample", None),
        (ensembles, "dual_rsk_shape", "ensembles.dual_rsk_shape", None),
        (ensembles, "random_bit_matrix", "ensembles.random_bit_matrix", None),
        (ensembles, "measure_table", "ensembles.measure_table",
         obs.measure_table),
        (ensembles, "most_probable_diagram", "ensembles.most_probable_diagram",
         None),
        (limitshape, "limit_f", "limitshape.limit_f", None),
        (limitshape, "rho_integral", "limitshape.rho_integral", None),
        (limitshape, "mean_boundary", "limitshape.mean_boundary", None),
        (limitshape, "sup_distance", "limitshape.sup_distance", None),
    ]
    for module, attr, span_name, observe in functions:
        fn = getattr(module, attr)
        _replace_everywhere(fn, tracer.wrap(span_name, fn, observe))


def _calls(span):
    return lambda s, o, run_s: s[span].calls


def _total(span):
    return lambda s, o, run_s: s[span].total


def _self(span):
    return lambda s, o, run_s: s[span].self_time


def _per_call(span, field, scale):
    def value(s, o, run_s):
        sp = s[span]
        return getattr(sp, field) / sp.calls * scale if sp.calls else 0.0
    return value


def _distinct(attr, span):
    def value(s, o, run_s):
        calls = s[span].calls
        return len(getattr(o, attr)) / calls if calls else 0.0
    return value


def _mean_len(s, o, run_s):
    return o.mul_coeffs / o.mul_operands if o.mul_operands else 0.0


# (metric, unit, value from (spans, observations, cli.run seconds)).  The
# benchmark adds cli.stdout_bytes and trace.overhead_frac from outside.
LAYER_METRICS = [
    ("exact.mul.calls", "count", _calls("exact.mul")),
    ("exact.mul.self_s", "s", _self("exact.mul")),
    ("exact.mul.mean_len", "coeffs", _mean_len),
    ("exact.mul.max_bits", "bits", lambda s, o, run_s: o.mul_max_bits),
    ("exact.divide_exact.calls", "count", _calls("exact.divide_exact")),
    ("exact.divide_exact.self_s", "s", _self("exact.divide_exact")),
    ("exact.q_binomial.calls", "count", _calls("exact.q_binomial")),
    ("exact.q_binomial.s", "s", _total("exact.q_binomial")),
    ("exact.q_binomial.distinct_frac", "frac",
     _distinct("q_binomial_args", "exact.q_binomial")),
    ("exact.catalan_triangle_q.calls", "count",
     _calls("exact.catalan_triangle_q")),
    ("exact.catalan_triangle_q.s", "s", _total("exact.catalan_triangle_q")),
    ("multiplicity.qlaurent_determinant.calls", "count",
     _calls("multiplicity.qlaurent_determinant")),
    ("multiplicity.qlaurent_determinant.self_s", "s",
     _self("multiplicity.qlaurent_determinant")),
    ("multiplicity.qlaurent_determinant.distinct_frac", "frac",
     _distinct("det_matrices", "multiplicity.qlaurent_determinant")),
    ("multiplicity.mult_prod.calls", "count", _calls("multiplicity.mult_prod")),
    ("multiplicity.mult_prod.s", "s", _total("multiplicity.mult_prod")),
    ("multiplicity.qdim.calls", "count", _calls("multiplicity.qdim")),
    ("multiplicity.qdim.s", "s", _total("multiplicity.qdim")),
    ("multiplicity.weyl_dimension.calls", "count",
     _calls("multiplicity.weyl_dimension")),
    ("multiplicity.weyl_dimension.self_s", "s",
     _self("multiplicity.weyl_dimension")),
    ("multiplicity.weyl_dimension.us_per_call", "us",
     _per_call("multiplicity.weyl_dimension", "self_time", 1e6)),
    ("ensembles.dual_rsk_shape.calls", "count",
     _calls("ensembles.dual_rsk_shape")),
    ("ensembles.dual_rsk_shape.ms_per_sample", "ms",
     _per_call("ensembles.dual_rsk_shape", "total", 1e3)),
    ("ensembles.random_bit_matrix.calls", "count",
     _calls("ensembles.random_bit_matrix")),
    ("ensembles.random_bit_matrix.s", "s", _total("ensembles.random_bit_matrix")),
    ("ensembles.measure_table.self_s", "s", _self("ensembles.measure_table")),
    ("ensembles.measure_table.entries", "count",
     lambda s, o, run_s: o.table_entries),
    ("ensembles.most_probable_diagram.s", "s",
     _total("ensembles.most_probable_diagram")),
    ("limitshape.limit_f.calls", "count", _calls("limitshape.limit_f")),
    ("limitshape.limit_f.us_per_eval", "us",
     _per_call("limitshape.limit_f", "total", 1e6)),
    ("limitshape.rho_integral.calls", "count", _calls("limitshape.rho_integral")),
    ("limitshape.rho_integral.self_s", "s", _self("limitshape.rho_integral")),
    ("limitshape.mean_boundary.s", "s", _total("limitshape.mean_boundary")),
    ("limitshape.sup_distance.s", "s", _total("limitshape.sup_distance")),
    ("cli.run.s", "s", lambda s, o, run_s: run_s),
]


def main(argv: list[str]) -> int:
    out_path, cli_argv = argv[0], argv[1:]
    from skewhowe import cli

    tracer, obs = Tracer(), Observations()
    install(tracer, obs)
    t0 = time.perf_counter()
    code = cli.run(cli_argv)
    run_s = time.perf_counter() - t0
    sys.stdout.flush()
    report = {
        "metrics": {name: [value(tracer.spans, obs, run_s), unit]
                    for name, unit, value in LAYER_METRICS},
        "self_frac": {name: span.self_time / run_s
                      for name, span in tracer.spans.items() if span.calls},
    }
    with open(out_path, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
