"""Run one tensorwalks CLI query with spans around each layer's public functions.

    python perfbench/tracer.py OUT.json <verb> [args...]

The CLI runs unchanged; this script wraps the library from outside before
calling `tensorwalks.cli.main`.  Every module-level name bound to a wrapped
function is rebound, in every tensorwalks module, so calls through names
imported with `from .quiver import mckay_adjacency` (cli, series, verify) are
traced as well as calls inside the defining module.  `CycNum` arithmetic is
counted by replacing its operator methods on the class.  Spans stay in memory
and are written to OUT.json when the query ends.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import sys
import time
from functools import wraps
from math import gcd

# Layer -> (module, public functions).  None means every public function the
# module defines.
LAYERS = {
    "quiver.adjacency": ("quiver", ("mckay_adjacency",)),
    "quiver.mat_pow": ("quiver", ("mat_pow",)),
    "quiver.character": ("quiver", ("walk_count_character", "character_walk_counts")),
    "closedforms": ("closedforms", None),
    "series.cramer": ("series", ("poincare_cramer", "walk_generating_function",
                                 "det_factorization_check", "dynkin_quotient")),
    "series.character": ("series", ("poincare_character", "egf_hyperbolic", "egf_product",
                                    "egf_pow", "egf_scale_arg", "egf_from_ints")),
    "polynomials.det": ("polynomials", ("poly_det",)),
    "groups.build": ("groups", ("parse_spec_full", "build_cyclic", "build_abelian",
                                "build_symmetric", "build_wreath_invariant", "build_gl2",
                                "build_sl2", "both_modules_gl2", "both_modules_sl2",
                                "standard_module_cyclic", "circulant_module", "paley_module",
                                "coordinate_module", "permutation_module", "monomial_module")),
    "diagrams.basis": ("diagrams", ("basis_count", "basis_counts", "enumerate_basis")),
    "verify.suite": ("verify", None),
}

# Functions that build a character table: their calls are groups.build_calls.
GROUP_BUILDERS = ("build_cyclic", "build_abelian", "build_symmetric", "build_wreath_invariant",
                  "build_gl2", "build_sl2", "both_modules_gl2", "both_modules_sl2")


class Tracer:
    """Spans as (id, parent id, layer, function, start, end), calls per
    "layer/function", and CycNum operator counts."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.calls: dict[str, int] = {}
        self.ops = {"mul": [0], "add": [0]}
        self.size: dict | None = None

    def wrap(self, layer: str, func):
        name = func.__name__
        key = f"{layer}/{name}"

        @wraps(func)
        def traced(*args, **kwargs):
            span = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(span)
            self.calls[key] = self.calls.get(key, 0) + 1
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[span] = (span, parent, layer, name, start, end)
            if name == "parse_spec_full" and self.size is None:
                self.size = _problem_size(result.group)
            return result
        return traced

    def count(self, cell: list, op):
        def counted(a, b):
            cell[0] += 1
            return op(a, b)
        return counted

    def install(self) -> None:
        import tensorwalks
        from tensorwalks.cyclotomic import CycNum

        for info in pkgutil.iter_modules(tensorwalks.__path__):
            importlib.import_module(f"tensorwalks.{info.name}")
        wrapped = {}
        for layer, (module_name, names) in LAYERS.items():
            module = sys.modules[f"tensorwalks.{module_name}"]
            if names is None:
                names = [n for n, f in vars(module).items()
                         if inspect.isfunction(f) and f.__module__ == module.__name__
                         and not n.startswith("_")]
            for name in names:
                func = getattr(module, name)
                wrapped[id(func)] = self.wrap(layer, func)
        for module_name, module in list(sys.modules.items()):
            if module_name == "tensorwalks" or module_name.startswith("tensorwalks."):
                for attr, value in list(vars(module).items()):
                    if id(value) in wrapped:
                        setattr(module, attr, wrapped[id(value)])
        for op, kind in (("__mul__", "mul"), ("__rmul__", "mul"),
                         ("__add__", "add"), ("__radd__", "add")):
            setattr(CycNum, op, self.count(self.ops[kind], getattr(CycNum, op)))

    def run_main(self, argv: list[str]) -> int:
        import tensorwalks.cli

        return self.wrap("cli", tensorwalks.cli.main)(argv)

    def dump(self, path: str) -> None:
        doc = {"spans": self.spans, "calls": self.calls,
               "ops": {k: v[0] for k, v in self.ops.items()}, "size": self.size}
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _problem_size(group) -> dict:
    n = group.conductor
    phi = sum(1 for a in range(1, n + 1) if gcd(a, n) == 1)
    return {"classes": group.n_classes, "conductor": n, "phi": phi}


def self_times(spans: list) -> dict[str, float]:
    """Seconds per layer of each span's duration minus its direct children's."""
    child = [0.0] * len(spans)
    for _, parent, _, _, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for span, _, layer, _, start, end in spans:
        out[layer] = out.get(layer, 0.0) + (end - start) - child[span]
    return out


def main(argv: list[str]) -> int:
    out_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        return tracer.run_main(cli_argv)
    finally:
        tracer.dump(out_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
