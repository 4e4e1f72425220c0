"""Per-layer spans and counters, installed around kronhf entry points from outside.

`installed(tracer)` replaces each named function in every loaded kronhf
module (and each named Matrix method) by a wrapper that records a span,
and puts the originals back on exit. Spans are aggregated as they close:
calls, self time (duration minus the time of wrapped calls made inside it)
and inclusive time per metric name, plus the counters that the hooks below
read off arguments and results. The program itself is not edited.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

RREF_BIT = 1        # an rref span closed inside this span
MATRICES_BIT = 2    # a matrices-layer span closed inside this span


def _rref_hook(tr, args, result, flags):
    tr.counts["matrices.rref.cells"] += args[0].rows * args[0].cols


def _rank_hook(tr, args, result, flags):
    if not flags & RREF_BIT:
        tr.counts["rank_fastpath"] += 1


def _pencil_hook(tr, args, result, flags):
    if not flags & MATRICES_BIT:
        tr.counts["pencil_fastpath"] += 1


def _exhaustive_hook(tr, args, result, flags):
    tr.counts["expander.subspaces"] += result.subspaces_checked
    tr.counts["expander.expected_total"] += result.notes["expected_total"]


def _produce_hook(tr, args, result, flags):
    tr.counts["witness.splits"] += result.notes.get("splits", 0) + result.notes.get("stages", 0)


# (metric, module, attribute, hook); several attributes may share one metric
FUNCTIONS = [
    ("matrices.column_space_dim_of_stack", "kronhf.matrices", "column_space_dim_of_stack", None),
    ("modules.hom_space", "kronhf.modules", "hom_space", None),
    ("modules.factor_monic", "kronhf.modules", "factor_monic", None),
    ("modules.build_P", "kronhf.modules", "build_P", None),
    ("modules.build_Q", "kronhf.modules", "build_Q", None),
    ("modules.build_R", "kronhf.modules", "build_R", None),
    ("modules.build_postinjective_theta", "kronhf.modules", "build_postinjective_theta", None),
    ("modules.build_preprojective_theta", "kronhf.modules", "build_preprojective_theta", None),
    ("modules.direct_sum", "kronhf.modules", "direct_sum", None),
    ("modules.classify_standard", "kronhf.modules", "classify_standard", None),
    ("pencil.decompose_pencil", "kronhf.pencil", "decompose_pencil", _pencil_hook),
    ("quiver.build_gamma", "kronhf.quiver", "build_gamma", None),
    ("quiver.is_tree", "kronhf.quiver", "is_tree", None),
    ("quiver.degree_stats", "kronhf.quiver", "degree_stats", None),
    ("witness.produce", "kronhf.witness", "witness_preprojective_2k", _produce_hook),
    ("witness.produce", "kronhf.witness", "witness_regular_2k", _produce_hook),
    ("witness.produce", "kronhf.witness", "witness_postinjective_2k", _produce_hook),
    ("witness.produce", "kronhf.witness", "fragment_tree_module", _produce_hook),
    ("witness.produce", "kronhf.witness", "fragment_postinjective_theta", _produce_hook),
    ("witness.combinator", "kronhf.witness", "combinator_bounded_codim", None),
    ("witness.combinator", "kronhf.witness", "combinator_direct_sum", None),
    ("witness.verify", "kronhf.witness", "verify_witness", None),
    ("expander.check_exhaustive", "kronhf.expander", "check_exhaustive", _exhaustive_hook),
    ("expander.check_sampled_rational", "kronhf.expander", "check_sampled_rational", None),
    ("sl2p.kazhdan_upper_bound", "kronhf.sl2p", "kazhdan_upper_bound", None),
    ("sl2p.kazhdan_lower_bound", "kronhf.sl2p", "kazhdan_lower_bound", None),
    ("sl2p.adjoint_generators", "kronhf.sl2p", "adjoint_generators", None),
    ("sl2p.is_irreducible", "kronhf.sl2p", "is_irreducible", None),
]

# (metric, attribute of kronhf.matrices.Matrix, hook)
METHODS = [
    ("matrices.rref", "rref", _rref_hook),
    ("matrices.rank", "rank", _rank_hook),
    ("matrices.kernel_basis", "kernel_basis", None),
    ("matrices.solve", "solve", None),
    ("matrices.matmul", "__matmul__", None),
]

SPAN_METRICS = sorted({m for m, *_ in FUNCTIONS} | {m for m, *_ in METHODS})

FIELD_OPS = ("add", "sub", "mul", "neg", "inv")


class Tracer:
    """Aggregated spans of one measured phase."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.counts = Counter()
        self._stack = []

    def wrap(self, metric, fn, hook):
        stack = self._stack
        bit = MATRICES_BIT if metric.startswith("matrices.") else 0
        if metric == "matrices.rref":
            bit |= RREF_BIT

        def span(*args, **kwargs):
            frame = [0.0, 0]          # seconds in wrapped children, flags of the subtree
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                    stack[-1][1] |= frame[1] | bit
                self.calls[metric] += 1
                self.self_s[metric] += dt - frame[0]
                self.incl_s[metric] += dt
            if hook is not None:
                hook(self, args, result, frame[1])
            return result

        return span


def _kronhf_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "kronhf" or name.startswith("kronhf."))]


@contextmanager
def installed(tracer, count_field_ops=None):
    """Wrap the layer entry points for the duration of the block.

    count_field_ops, when a Counter, also receives one count per field
    add/sub/mul/neg/inv dispatch under the key "fields.ops".
    """
    from kronhf.fields import PrimeField, RationalField
    from kronhf.matrices import Matrix

    saved = []

    def replace(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    try:
        mods = _kronhf_modules()
        for metric, modname, attr, hook in FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            wrapper = tracer.wrap(metric, orig, hook)
            for mod in mods:
                for name in [n for n, v in vars(mod).items() if v is orig]:
                    replace(mod, name, wrapper)
        for metric, attr, hook in METHODS:
            replace(Matrix, attr, tracer.wrap(metric, Matrix.__dict__[attr], hook))
        if count_field_ops is not None:
            for cls in (RationalField, PrimeField):
                for attr in FIELD_OPS:
                    replace(cls, attr, _counting(cls.__dict__[attr], count_field_ops))
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def _counting(fn, counter):
    def counted(*args):
        counter["fields.ops"] += 1
        return fn(*args)
    return counted
