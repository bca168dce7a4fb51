"""Span recorder that wraps public functions of the disslab layer modules.

Nothing under ``src/`` changes: the tracer replaces each traced name where
its callers look it up (every loaded ``disslab`` module namespace that binds
the function, or the class attribute for methods) and restores the originals
when uninstalled.  Spans are kept in memory as ``[name, start, end, parent]``
rows, with ``parent`` the index of the enclosing span or -1.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# Traced names per module.  "Class.method" entries patch the class attribute.
# Besides the names the benchmark reports, the heavier entry points called
# straight from the CLI are wrapped too, so that their time is charged to
# their own module's self time and not to ``cli.self_s``.
SPANS = {
    "cli": ["main"],
    "dissipation": [
        "tau_d_exact",
        "pulse_energy_form",
        "integer_form_minimum",
        "tau_d_operator",
        "tau_d_operator_catmap",
        "operator_norm_energies",
        "fit_energy_decay",
        "check_lower_bound_chain",
        "dissipation_sweep",
    ],
    "toral": ["ToralAutomorphism.conditions", "verify_norm_form", "kronecker_classify"],
    "pulsed": [
        "evolve",
        "inviscid_gap",
        "ball_modes",
        "TruncatedKoopman.from_automorphism",
        "TruncatedKoopman.koopman_apply",
        "TruncatedKoopman.koopman_adjoint",
    ],
    "mixing": ["strong_envelope", "weak_cesaro", "lattice_ball_sum", "weak_rate_envelope", "fit_rate"],
    "bounds": ["eval_H", "check_bound", "lattice_count", "weyl_constant", "BoundProfile.evaluate_grid"],
    "shear": ["tau_d_cts", "evolve_cts", "energy_identity_defects", "transport_gap_cts"],
}

# Hot, cheap calls that are counted but get no span.
COUNTERS = {"toral": ["ToralAutomorphism.push_mode"]}

# Spans whose result length is summed into "<name>.rows".
ROWS = {"pulsed.ball_modes"}

# name of the per-result ratio -> (numerator span, denominator span)
RATIOS = {
    "dissipation.forms_per_result": ("dissipation.integer_form_minimum", "dissipation.tau_d_exact"),
    "pulsed.applies_per_result": ("pulsed.koopman_apply", "dissipation.tau_d_operator"),
    "shear.solves_per_result": ("shear.evolve_cts", "shear.tau_d_cts"),
}


class Tracer:
    """Install span wrappers into the loaded ``disslab`` modules."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original value)

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        rows = name in ROWS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if rows:
                counts[name + ".rows"] += len(result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall ------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _install_one(self, module_name, target, make):
        module = sys.modules[f"disslab.{module_name}"]
        name = f"{module_name}.{target.rsplit('.', 1)[-1]}"
        if "." in target:
            cls_name, meth = target.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, staticmethod):
                self._patch(cls, meth, staticmethod(make(name, raw.__func__)))
            else:
                self._patch(cls, meth, make(name, raw))
            return
        original = getattr(module, target)
        wrapped = make(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "disslab" or mod_name.startswith("disslab.")) and mod.__dict__.get(target) is original:
                self._patch(mod, target, wrapped)

    def install(self):
        for module_name, targets in SPANS.items():
            for target in targets:
                self._install_one(module_name, target, self._span)
        for module_name, targets in COUNTERS.items():
            for target in targets:
                self._install_one(module_name, target, self._counter)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        """Inclusive time and calls per name, module self time, counts, ratios.

        A module's self time is the time during which its span is the
        innermost open span: each span's duration minus that of its direct
        children, summed per module.
        """
        out: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            out[name + ".s"] += end - start
            calls[name + ".calls"] += 1
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _), inner in zip(self.spans, child_time):
            out[name.split(".")[0] + ".self_s"] += (end - start) - inner
        out.update(calls)
        out.update(self.counts)
        for ratio, (num, den) in RATIOS.items():
            den_calls = out.get(den + ".calls", 0)
            out[ratio] = out.get(num + ".calls", 0) / den_calls if den_calls else 0.0
        return dict(out)

    def dump(self, path):
        """Write the spans as JSON: one [name, start, end, parent] row each."""
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
