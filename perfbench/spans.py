"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own code: the workload's operation
boundaries (a curve, a sampler chunk, a battery) open spans directly, and
`install` replaces each public compfade function or method named in
`TARGETS` by a wrapper that opens a span around the call. Nothing inside
the library is changed; the wrappers are removed again by the function
`install` returns.

Each span keeps a name, start, end and parent index in flat arrays. The
per-name aggregates (calls, busy and self time, terms used, unconverged
results, exceptions) are updated as each span closes, so the summary never
has to walk the span list.
"""
from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from compfade.series import SeriesResult

# (span name, module, class or None, attribute). The span name is
# <module>.<function>; methods drop their class because each module has one
# distribution class and one envelope class.
TARGETS = (
    ("params.AefParams", "compfade.params", None, "AefParams"),
    ("params.AkfParams", "compfade.params", None, "AkfParams"),
    ("params.omega", "compfade.params", None, "omega"),
    ("params.upsilon", "compfade.params", None, "upsilon"),
    ("specfun.gauss_2f1", "compfade.specfun", None, "gauss_2f1"),
    ("specfun.kummer_1f1", "compfade.specfun", None, "kummer_1f1"),
    ("specfun.humbert_psi1", "compfade.specfun", None, "humbert_psi1"),
    ("specfun.kdf_2_1", "compfade.specfun", None, "kdf_2_1"),
    ("specfun.beta", "compfade.specfun", None, "beta"),
    ("aef.snr_pdf", "compfade.aef", "AefDist", "snr_pdf"),
    ("aef.snr_cdf", "compfade.aef", "AefDist", "snr_cdf"),
    ("aef.cdf_truncation_bound", "compfade.aef", "AefDist", "cdf_truncation_bound"),
    ("aef.envelope_pdf", "compfade.aef", "AefEnvelope", "envelope_pdf"),
    ("akf.snr_pdf", "compfade.akf", "AkfDist", "snr_pdf"),
    ("akf.snr_cdf_series", "compfade.akf", "AkfDist", "snr_cdf_series"),
    ("akf.snr_cdf_closed", "compfade.akf", "AkfDist", "snr_cdf_closed"),
    ("akf.envelope_pdf", "compfade.akf", "AkfEnvelope", "envelope_pdf"),
    ("outage.outage", "compfade.outage", None, "outage"),
    ("outage.gains", "compfade.outage", None, "gains"),
    ("outage.asymptotic_outage_aef", "compfade.outage", None, "asymptotic_outage_aef"),
    ("outage.asymptotic_outage_akf", "compfade.outage", None, "asymptotic_outage_akf"),
    ("cases.check_lattice", "compfade.cases", None, "check_lattice"),
    ("mc.make_phys", "compfade.mc", None, "make_phys"),
    ("mc.sample_aef_envelope", "compfade.mc", None, "sample_aef_envelope"),
    ("mc.sample_akf_envelope", "compfade.mc", None, "sample_akf_envelope"),
    ("mc.ks_distance", "compfade.mc", None, "ks_distance"),
    ("validation.run_battery", "compfade.validation", None, "run_battery"),
    ("validation.check_normalization", "compfade.validation", None, "check_normalization"),
    ("validation.check_lattice", "compfade.validation", None, "check_lattice"),
    ("validation.check_mc", "compfade.validation", None, "check_mc"),
)


@dataclass
class Stat:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    unconverged: int = 0
    terms: list = field(default_factory=list)
    raised: Counter = field(default_factory=Counter)


class Tracer:
    """Span store plus per-name aggregates."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[list] = []  # [span index, time covered by children]
        self.stats: dict[str, Stat] = {}

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
            self.stats[name] = Stat()
        return i

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append([idx, 0.0])
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, result=None, raised: str | None = None) -> None:
        t = time.perf_counter()
        top, child_s = self._stack.pop()
        assert top == idx, "spans must close in LIFO order"
        self.end[idx] = t
        dur = t - self.start[idx]
        if self._stack:
            self._stack[-1][1] += dur
        st = self.stats[self.names[self.name_id[idx]]]
        st.calls += 1
        st.busy_s += dur
        st.self_s += dur - child_s
        if raised is not None:
            st.raised[raised] += 1
        elif type(result) is SeriesResult:
            st.terms.append(result.terms_used)
            if not result.converged:
                st.unconverged += 1

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(idx, raised=type(exc).__name__)
                raise
            tracer.close(idx, result=out)
            return out

        return traced

    def write(self, path: Path) -> None:
        """Write every span as flat arrays (names indexed by name_id)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def install(tracer: Tracer):
    """Wrap every target in TARGETS; return a function that restores them."""
    saved = []
    for name, module, cls, attr in TARGETS:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original))

    def restore() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer stats for every target, zero where the layer was not used."""
    out = {}
    for name, *_ in TARGETS:
        st = tracer.stats.get(name, Stat())
        terms = np.asarray(st.terms, dtype=np.float64)
        total_terms = float(terms.sum()) if terms.size else 0.0
        out[f"{name}.calls"] = st.calls
        out[f"{name}.busy_s"] = st.busy_s
        out[f"{name}.self_s"] = st.self_s
        out[f"{name}.unconverged"] = st.unconverged
        out[f"{name}.terms_p50"] = float(np.percentile(terms, 50)) if terms.size else 0.0
        out[f"{name}.terms_p99"] = float(np.percentile(terms, 99)) if terms.size else 0.0
        out[f"{name}.terms_max"] = float(terms.max()) if terms.size else 0.0
        out[f"{name}.us_per_term"] = (
            st.busy_s * 1e6 / total_terms if total_terms else 0.0
        )
        for exc_name, count in st.raised.items():
            out[f"{name}.raised.{exc_name}"] = count
    return out
