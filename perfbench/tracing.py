"""Layer spans recorded from outside the program.

Each layer's entry point is wrapped by replacing the name in the namespace
of the module that calls it (``magnoncavity.cli.evolve_pseudomode``, not
``magnoncavity.dynamics.evolve_pseudomode``), because the callers bound the
function at import time. Spans live in memory as (name, start, end, parent,
run id) and are reduced to self times and counts at the end of each pass.
A name that a later version of the program no longer has is skipped: its
layer then reports zero and its time falls to the caller's span.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from pathlib import Path

# Span names, in report order. Every span opened during a pass has one of
# these names, so their self times sum to the pass time.
SPANS = (
    "cli.main",
    "cli.parse_config",
    "cli.run",
    "cli.derived",
    "cli.write_csv",
    "dynamics.build_kernel",
    "dynamics.evolve_pseudomode",
    "dynamics.evolve_volterra",
    "network.transfer_dynamics",
    "network.extract_swap",
    "spectral.field_sweep_map",
    "spectral.spectral_density",
    "modes.quantize_mode",
    "modes.coupling_strength",
)

COUNTS = (
    "cli.write_csv.rows",
    "cli.write_csv.bytes",
    "dynamics.rhs_evals",
    "dynamics.samples",
    "dynamics.volterra_history_terms",
    "network.rhs_evals",
    "spectral.spectral_density.calls",
    "spectral.lorentzian_terms",
    "modes.quantize_mode.calls",
    "modes.coupling_strength.calls",
)


class Tracer:
    """Records nested spans and counts while its patches are installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []     # [name, start, end, parent index, run id]
        self._stack: list[int] = []
        self.run_id = ""
        self.counts: Counter = Counter()
        self.written: list[Path] = []
        self._undo: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, self.run_id])
        self._stack.append(index)
        self.spans[index][1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    # -- patching -----------------------------------------------------------

    def _patch(self, module: str, attr: str, make) -> None:
        mod = importlib.import_module(module)
        orig = getattr(mod, attr, None)
        if orig is None:
            return
        self._undo.append((mod, attr, orig))
        setattr(mod, attr, functools.wraps(orig)(make(orig)))

    def _span(self, module: str, attr: str, name: str, after=None, count: str | None = None):
        def make(orig):
            def wrapper(*args, **kwargs):
                if count:
                    self.counts[count] += 1
                result = self.call(name, orig, *args, **kwargs)
                if after:
                    after(result, args, kwargs)
                return result
            return wrapper
        self._patch(module, attr, make)

    def _nfev(self, module: str, counter: str) -> None:
        # solve_ivp is counted, not timed: its time stays in the caller's span.
        def make(orig):
            def wrapper(*args, **kwargs):
                sol = orig(*args, **kwargs)
                self.counts[counter] += int(getattr(sol, "nfev", 0))
                return sol
            return wrapper
        self._patch(module, "solve_ivp", make)

    def install(self) -> None:
        cli, dyn, net, spec, modes = ("magnoncavity." + m for m in
                                      ("cli", "dynamics", "network", "spectral", "modes"))
        self._span(cli, "parse_config", "cli.parse_config")
        self._span(cli, "run", "cli.run")
        self._span(cli, "_derived_quantities", "cli.derived")
        # Rows and bytes are read back from the file after the pass, so
        # the writer sees its arguments unchanged.
        self._span(cli, "_write_csv", "cli.write_csv",
                   after=lambda res, a, kw: self.written.append(Path(a[0] if a else kw["path"])))
        self._span(cli, "build_kernel", "dynamics.build_kernel")
        self._span(cli, "evolve_pseudomode", "dynamics.evolve_pseudomode",
                   after=self._samples)
        self._span(cli, "evolve_volterra", "dynamics.evolve_volterra",
                   after=self._volterra_samples)
        self._nfev(dyn, "dynamics.rhs_evals")
        self._span(cli, "transfer_dynamics", "network.transfer_dynamics")
        self._span(net, "_extract_swap", "network.extract_swap")
        self._nfev(net, "network.rhs_evals")
        self._span(cli, "field_sweep_map", "spectral.field_sweep_map")
        self._span(spec, "spectral_density", "spectral.spectral_density",
                   after=self._lorentzian_terms, count="spectral.spectral_density.calls")
        for module in (modes, cli, net):
            self._span(module, "quantize_mode", "modes.quantize_mode",
                       count="modes.quantize_mode.calls")
        for module in (spec, cli, net):
            self._span(module, "coupling_strength", "modes.coupling_strength",
                       count="modes.coupling_strength.calls")

    def uninstall(self) -> None:
        while self._undo:
            mod, attr, orig = self._undo.pop()
            setattr(mod, attr, orig)

    # -- counters computed from arguments and results -------------------------

    def _samples(self, ts, args, kwargs) -> int:
        n = len(ts.times)
        self.counts["dynamics.samples"] += n
        return n

    def _volterra_samples(self, ts, args, kwargs) -> None:
        steps = self._samples(ts, args, kwargs) - 1
        # The trapezoid history sums k + 1 terms at step k.
        self.counts["dynamics.volterra_history_terms"] += steps * (steps + 1) // 2

    def _lorentzian_terms(self, values, args, kwargs) -> None:
        # spectral_density(omega, emitter, cavity): one term per omega and mode.
        omega = args[0] if args else kwargs.get("omega")
        cavity = args[2] if len(args) > 2 else kwargs.get("cavity")
        self.counts["spectral.lorentzian_terms"] += (getattr(omega, "size", 1)
                                                     * getattr(cavity, "n_max", 0))

    # -- per-pass reduction ---------------------------------------------------

    def reduce(self) -> dict:
        """Self time per span name, counts, and the covered pass time."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_s = dict.fromkeys(SPANS, 0.0)
        pass_s = 0.0
        for (name, start, end, parent, _), inner in zip(self.spans, child_time):
            self_s[name] += (end - start) - inner
            if parent is None:
                pass_s += end - start
        counts = dict.fromkeys(COUNTS, 0)
        counts.update(self.counts)
        for path in self.written:
            data = path.read_bytes()
            counts["cli.write_csv.bytes"] += len(data)
            lines = data.splitlines()
            comments = sum(1 for line in lines if line.startswith(b"#"))
            counts["cli.write_csv.rows"] += len(lines) - comments - 1   # minus column header
        return {"self_s": self_s, "counts": counts, "pass_s": pass_s,
                "spans": len(self.spans)}
