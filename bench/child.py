"""One benchmark operation, run in a fresh interpreter.

Usage: ``python child.py SPEC.json RESULT.json``

``SPEC`` holds ``{"argvs": [[...], ...], "trace": false}``.  The child times
``import squeezewitness.cli`` first, then calls ``cli.main(argv)`` for each
argv in turn and writes to ``RESULT`` the import time, and the exit code and
wall time of each call.  With ``"trace": true`` it first wraps every public
function of the package's modules in a span and also writes, per span name,
the self time, the number of calls and a few counts.
"""

import sys
import time

_start = time.perf_counter()
from squeezewitness import cli  # noqa: E402  (the import is what is timed)
IMPORT_S = time.perf_counter() - _start

import functools  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

TRACED_MODULES = ("cli", "figures", "svgplot", "witness", "gaussian",
                  "channels", "fock", "opexpr", "validate")
# Public helpers whose time belongs to their caller's span: per-cell CSV
# formatting, the 2x2 rotation inside the closed forms, and the per-figure
# builders that build_figure dispatches to.
UNTRACED = {"figures.format_value", "gaussian.rotation_matrix",
            "figures.figure_fluctuations", "figures.figure_noise_sweep",
            "figures.figure_robustness"}


class Tracer:
    """Spans around package functions, kept in memory.

    A span's self time is its duration minus the durations of the spans it
    caused.  Besides self time and calls per span name, it counts the rows
    read, the grid points built, the oracle states built inside
    ``converged_cutoff`` and the states refused for truncation.
    """

    def __init__(self):
        self.stack = []                 # child-time accumulators, innermost last
        self.active = Counter()         # span names currently open
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()

    def install(self):
        """Wrap each public function wherever a package module binds it."""
        modules = [importlib.import_module(f"squeezewitness.{name}")
                   for name in TRACED_MODULES]
        wrappers = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == module.__name__
                        and f"{short}.{name}" not in UNTRACED):
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{name}", fn))
        for name, module in list(sys.modules.items()):
            if name != "squeezewitness" and not name.startswith("squeezewitness."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def _wrap(self, span, fn):
        if span == "fock.fock_state":
            signature = inspect.signature(fn)

            def name_of(args, kwargs):
                bound = signature.bind(*args, **kwargs).arguments
                mixed = bound["params_si"].nbar > 0 or bound["params_lo"].nbar > 0
                return "fock.fock_state.mixed" if mixed else "fock.fock_state.pure"
        else:
            def name_of(args, kwargs):
                return span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = name_of(args, kwargs)
            frame = [0.0]
            self.stack.append(frame)
            self.active[span] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if span == "fock.fock_state" and type(exc).__name__ == "TruncationError":
                    self.counts["fock.truncation_refusals"] += 1
                raise
            else:
                self._count(span, result)
                return result
            finally:
                elapsed = time.perf_counter() - start
                self.active[span] -= 1
                self.stack.pop()
                if self.stack:
                    self.stack[-1][0] += elapsed
                self.self_s[name] += elapsed - frame[0]
                self.calls[name] += 1
                if span == "fock.fock_state" and self.active["fock.converged_cutoff"]:
                    self.counts["fock.converged_cutoff.states_built"] += 1

        return traced

    def _count(self, span, result):
        if span == "cli.read_moment_records":
            self.counts["cli.read_moment_records.rows"] += len(result[0])
        elif span == "figures.build_figure":
            self.counts["figures.points"] += len(result.rows)

    def report(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "counts": dict(self.counts)}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    tracer = Tracer() if spec.get("trace") else None
    if tracer is not None:
        tracer.install()
    ops = []
    for argv in spec["argvs"]:
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        ops.append({"code": code, "wall_s": time.perf_counter() - start})
    result = {"import_s": IMPORT_S, "ops": ops,
              "layers": tracer.report() if tracer is not None else {}}
    Path(sys.argv[2]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
