"""Layer timing for the traced benchmark run, recorded from outside the program.

``Recorder`` keeps spans in memory: name, thread, start, end, parent and
self time.  Each thread has its own stack of open spans, so a call nested in
another (the fermion->Majorana conversion inside ``hatt_mapping``) is charged
to the inner layer and subtracted from the outer one.

``install`` wraps each layer's public entry point where its caller looks the
name up, and returns an undo function that puts the originals back.  Nothing
under ``src/`` knows about this module.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    name: str
    thread: int
    start: float
    end: float
    self_s: float
    parent: str | None


class Recorder:
    """In-memory span and counter sink shared by every thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        frame = [name, 0.0]  # [name, time covered by child spans]
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            if stack:
                stack[-1][1] += end - start
            span = Span(name, threading.get_ident(), start, end, end - start - frame[1], parent)
            with self._lock:
                self.spans.append(span)

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def wrap(self, name: str, func, on_result=None):
        @functools.wraps(func)
        def timed(*args, **kwargs):
            with self.span(name):
                result = func(*args, **kwargs)
            if on_result is not None:
                on_result(self, args, result)
            return result

        return timed

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span.name] += span.self_s
        return dict(out)

    def calls(self) -> dict[str, int]:
        return dict(Counter(span.name for span in self.spans))

    def dump(self, path, meta: dict) -> None:
        """Write the spans (one JSON object per line after a header line)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta, "counts": dict(self.counts)}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def _count_monomials(rec, args, result):
    rec.count("fermion.majorana_monomials", len(result))


def _count_mapped_terms(rec, args, result):
    rec.count("mappings.mapped_terms", len(result))


def _count_route(rec, args, result):
    rec.count("circuits.logical_cx", args[0].cx_count)
    rec.count("circuits.swaps", result.swap_count)


def _count_lookup(rec, args, result):
    rec.count("service.lookups")
    if result.source == "compiled":
        rec.count("service.compiles")
    else:
        rec.count("service.hits")


#: (module, attribute path, layer, result hook).  Module-level functions are
#: patched in the module that calls them; methods on their class.
PATCHES = (
    ("repro.sources", "build_case", "sources.build", None),
    ("repro.serve.queue", "build_case", "sources.build", None),
    ("repro.service.service", "fingerprint_request", "service.fingerprint", None),
    ("repro.compile.pipeline", "fingerprint_request", "service.fingerprint", None),
    ("repro.compile.pipeline", "fingerprint_operator", "service.fingerprint", None),
    ("repro.service.service", "MappingService.get_or_compile", "service.get_or_compile",
     _count_lookup),
    ("repro.service.store", "ArtifactStore.get_mapping", "service.store_read", None),
    ("repro.service.store", "ArtifactStore.get_circuit_report", "service.store_read", None),
    ("repro.service.store", "ArtifactStore.put_mapping", "service.store_write", None),
    ("repro.service.store", "ArtifactStore.put_circuit_report", "service.store_write", None),
    ("repro.fermion.majorana", "MajoranaOperator.from_fermion_operator",
     "fermion.to_majorana", _count_monomials),
    ("repro.service.service", "hatt_mapping", "hatt.construction", None),
    ("repro.mappings.base", "FermionQubitMapping.map", "mappings.apply", _count_mapped_terms),
    ("repro.compile.pipeline", "trotter_circuit", "circuits.trotter", None),
    ("repro.compile.pipeline", "to_cx_u3", "circuits.peephole", None),
    ("repro.compile.pipeline", "route_circuit", "circuits.route", _count_route),
)

#: Every layer a patch can record, in request order.
LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _ in PATCHES))


def install(rec: Recorder):
    """Wrap every entry point in :data:`PATCHES`; returns the undo function."""
    undo = []
    for module_name, path, layer, hook in PATCHES:
        owner = importlib.import_module(module_name)
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            patched = classmethod(rec.wrap(layer, original.__func__, hook))
        else:
            patched = rec.wrap(layer, original, hook)
        setattr(owner, attr, patched)
        undo.append((owner, attr, original))

    def remove():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return remove
