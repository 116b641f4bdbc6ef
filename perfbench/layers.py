"""Which simulator layer owns each ``repro`` module.

Every module of ``src/repro`` is listed under exactly one layer.  A run
fails when a workload loads a ``repro`` module that is not listed, so a
new module has to be placed in a layer before its time can go unnoticed.
Layer names are the ones the traced run reports (see ``tracer.py``);
layers with no span boundary of their own (``core``, ``eval``, ...) own
code whose time lands in the span that calls it.
"""

from __future__ import annotations

import sys
from typing import Iterable

LAYERS: dict[str, tuple[str, ...]] = {
    "repro": ("repro", "repro.__main__"),
    "workloads": ("repro.workloads", "repro.workloads.apps",
                  "repro.workloads.clients", "repro.workloads.driver",
                  "repro.workloads.lebench"),
    "kernel": ("repro.kernel", "repro.kernel.buddy", "repro.kernel.cgroup",
               "repro.kernel.ebpf", "repro.kernel.image",
               "repro.kernel.kernel", "repro.kernel.layout",
               "repro.kernel.process", "repro.kernel.seccomp",
               "repro.kernel.slab", "repro.kernel.tracing"),
    "cpu.pipeline": ("repro.cpu", "repro.cpu.pipeline", "repro.cpu.branch"),
    "cpu.isa": ("repro.cpu.isa",),
    "cpu.cache": ("repro.cpu.cache",),
    "cpu.memsys": ("repro.cpu.memsys",),
    "cpu.blockcache": ("repro.cpu.blockcache",),
    "defenses": ("repro.defenses", "repro.defenses.base",
                 "repro.defenses.context", "repro.defenses.perspective",
                 "repro.defenses.registry", "repro.defenses.safespec",
                 "repro.defenses.schemes", "repro.defenses.spot"),
    "core": ("repro.core", "repro.core.admin", "repro.core.audit",
             "repro.core.framework", "repro.core.views", "repro.core.dsv"),
    "core.isv": ("repro.core.isv",),
    "core.hardware": ("repro.core.hardware",),
    "core.dsvmt": ("repro.core.dsvmt",),
    "analysis": ("repro.analysis", "repro.analysis.binary",
                 "repro.analysis.callgraph", "repro.analysis.dynamic_isv",
                 "repro.analysis.profiles", "repro.analysis.static_isv",
                 "repro.scanner", "repro.scanner.fuzzer",
                 "repro.scanner.gadgets", "repro.scanner.kasper",
                 "repro.scanner.taint"),
    "serve": ("repro.serve", "repro.serve.__main__", "repro.serve.arrival",
              "repro.serve.campaign", "repro.serve.engine",
              "repro.serve.shard"),
    "serve.conformance": ("repro.serve.conformance",),
    "obs": ("repro.obs", "repro.obs.__main__", "repro.obs.collect",
            "repro.obs.dashboard", "repro.obs.diffgate", "repro.obs.events",
            "repro.obs.profile", "repro.obs.registry", "repro.obs.reqtrace",
            "repro.obs.slo", "repro.reliability.faultplane"),
    "reliability": ("repro.reliability", "repro.reliability.__main__",
                    "repro.reliability.campaign",
                    "repro.reliability.invariants",
                    "repro.reliability.serde"),
    "eval": ("repro.eval", "repro.eval.defense_matrix", "repro.eval.envs",
             "repro.eval.export", "repro.eval.figures", "repro.eval.metrics",
             "repro.eval.report", "repro.eval.runner",
             "repro.eval.sensitivity", "repro.eval.sweeps",
             "repro.eval.tables", "repro.eval.validate"),
    "exec": ("repro.exec", "repro.exec.__main__", "repro.exec.cache",
             "repro.exec.engine", "repro.exec.fingerprint",
             "repro.exec.grids"),
    "attacks": ("repro.attacks", "repro.attacks.base", "repro.attacks.bhi",
                "repro.attacks.covert", "repro.attacks.cves",
                "repro.attacks.ebpf", "repro.attacks.harness",
                "repro.attacks.midfunction", "repro.attacks.retbleed",
                "repro.attacks.spectre_rsb", "repro.attacks.spectre_v1",
                "repro.attacks.spectre_v2"),
    "hw_model": ("repro.hw_model", "repro.hw_model.cacti"),
}

LAYER_OF: dict[str, str] = {
    module: layer for layer, modules in LAYERS.items() for module in modules}


def unmapped(modules: Iterable[str]) -> list[str]:
    """The ``repro`` modules among ``modules`` that no layer owns."""
    return sorted(m for m in modules
                  if (m == "repro" or m.startswith("repro."))
                  and m not in LAYER_OF)


def loaded_unmapped() -> list[str]:
    """Unmapped ``repro`` modules currently in ``sys.modules``."""
    return unmapped(list(sys.modules))
