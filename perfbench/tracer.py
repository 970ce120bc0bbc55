"""Outside-in tracer: wraps public functions of the qspec layers without editing them.

Modules bind names with ``from .simcore import eig_hermitian``, so patching
only the defining module would miss every call made through such a binding.
``install`` therefore replaces the function under every name that refers to
it in every loaded ``qspec`` module, and ``uninstall`` puts each back.

Spans nest on a stack: a span's ``s`` is its wall time including child
spans, and ``self_s`` subtracts the time its direct children covered.
``numpy.linalg.eigh`` is wrapped at the numpy boundary as a cross-check
on the ``simcore.eig_hermitian`` count.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable

import numpy as np

# (module, attribute, span name); an attribute "A.b" is method b of class A.
TARGETS = (
    ("qspec.models", "build_operator", "models.build_operator"),
    ("qspec.simcore", "eig_hermitian", "simcore.eig_hermitian"),
    ("qspec.simcore", "apply_controlled_unitary", "simcore.apply_controlled_unitary"),
    ("qspec.simcore", "apply_unitary", "simcore.apply_unitary"),
    ("qspec.simcore", "inverse_qft", "simcore.inverse_qft"),
    ("qspec.simcore", "register_distribution", "simcore.register_distribution"),
    ("qspec.purify", "thermal_operator_state", "purify.thermal_operator_state"),
    ("qspec.purify", "base_state", "purify.base_state"),
    ("qspec.stateprep", "run_prep_circuit", "stateprep.run_prep_circuit"),
    ("qspec.stateprep", "choose_phi", "stateprep.choose_phi"),
    ("qspec.stateprep", "success_probability_bound", "stateprep.success_probability_bound"),
    ("qspec.qpe", "run_qpe", "qpe.run_qpe"),
    ("qspec.qpe", "sample_outcomes", "qpe.sample_outcomes"),
    ("qspec.oracle", "exact_outcome_distribution", "oracle.exact_outcome_distribution"),
    ("qspec.oracle", "transition_weights", "oracle.transition_weights"),
    ("qspec.oracle", "spectral_function", "oracle.spectral_function"),
    ("qspec.experiment", "validate_config", "experiment.validate_config"),
    ("qspec.experiment", "run_experiment", "experiment.run_experiment"),
    ("qspec.experiment", "ExperimentReport.write", "experiment.write"),
    ("qspec.cli", "main", "cli.main"),
)


class Tracer:
    """Per-span call counts and times, accumulated while installed."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.prep_accepted = 0
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn: Callable, name: str) -> Callable:
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - children[0]
            if name == "stateprep.run_prep_circuit":
                self.prep_accepted += bool(result.accepted)
            return result

        return traced

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "qspec" or key.startswith("qspec.")]
        for module_name, attr, name in TARGETS:
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(sys.modules[module_name], cls_name)
                self._patch(cls, method, self._wrap(getattr(cls, method), name))
                continue
            original = getattr(sys.modules[module_name], attr)
            traced = self._wrap(original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, traced)
        self._patch(np.linalg, "eigh", self._wrap(np.linalg.eigh, "numpy.linalg.eigh"))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

