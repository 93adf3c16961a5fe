"""In-memory span tracer that wraps lsblab's cross-module call sites.

Nothing under ``src/`` is edited: the tracer replaces, for the duration of a
traced block, every function that one lsblab module imports from another
(``lsblab.cli.load_pgm``, ``lsblab.embed.traversal_order``,
``lsblab.harness.band_features``, ...) plus ``Rng.shuffle`` and ``Rng.bits``,
and puts the originals back afterwards. Each call becomes a span
``(name, start, end, parent)``; self time is a span's duration minus the time
its direct children cover.
"""

from __future__ import annotations

import importlib
import inspect
import time
from contextlib import contextmanager

MODULES = ("bits", "cli", "embed", "glcm", "harness", "image", "rng")

# Same-module call sites, also looked up by name at call time:
# (module, class or None, attribute, span name)
LOCAL = (
    ("lsblab.harness", None, "train_fld", "harness.train_fld"),
    ("lsblab.harness", None, "accuracy", "harness.accuracy"),
    ("lsblab.rng", "Rng", "shuffle", "rng.shuffle"),
    ("lsblab.rng", "Rng", "bits", "rng.bits"),
)

# Names the per-layer metrics depend on. A missing one is reported by
# install() and fails the self-test, but does not stop an end-to-end run.
REQUIRED = (
    ("lsblab.cli", "load_pgm"),
    ("lsblab.cli", "save_pgm"),
    ("lsblab.cli", "bytes_to_bits"),
    ("lsblab.cli", "bits_to_bytes"),
    ("lsblab.cli", "embed"),
    ("lsblab.cli", "extract"),
    ("lsblab.cli", "benchmark"),
    ("lsblab.embed", "traversal_order"),
    ("lsblab.embed", "frame_bits"),
    ("lsblab.harness", "embed"),
    ("lsblab.harness", "band_features"),
    ("lsblab.harness", "train_fld"),
    ("lsblab.harness", "accuracy"),
    ("lsblab.rng.Rng", "shuffle"),
    ("lsblab.rng.Rng", "bits"),
)


def _config_method(args, kwargs) -> str:
    config = kwargs.get("config", args[2] if len(args) > 2 else None)
    return getattr(config, "method", "unknown")


def _extract_family(args, kwargs) -> str:
    config = kwargs.get("config", args[1] if len(args) > 1 else None)
    method = getattr(config, "method", "unknown")
    return method.replace("_improved", "")


# span-name suffixes that split one function's spans by the method it ran
_SUFFIX = {
    "embed.embed": _config_method,
    "embed.extract": _extract_family,
}


class Tracer:
    """Collects spans while installed; spans are plain lists kept in memory."""

    def __init__(self, taggers: dict | None = None) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1, tag]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._labels: set[str] = set()  # "lsblab.embed.frame_bits", "lsblab.rng.Rng.bits", ...
        # span name -> callable(args, kwargs) whose result is stored as the span tag
        self.taggers = taggers or {}

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, tag=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, tag])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, fn, name: str):
        suffix = _SUFFIX.get(name)

        def traced(*args, **kwargs):
            full = f"{name}.{suffix(args, kwargs)}" if suffix else name
            tagger = self.taggers.get(full)
            index = self._open(full, tagger(args, kwargs) if tagger else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        traced.__wrapped__ = fn
        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every cross-module lsblab import; return REQUIRED names not found."""
        for short in MODULES:
            module = importlib.import_module(f"lsblab.{short}")
            for attr, value in list(vars(module).items()):
                home = getattr(value, "__module__", "")
                if (inspect.isfunction(value) and home.startswith("lsblab.")
                        and home != module.__name__):
                    self._patch(module, attr, f"{home[len('lsblab.'):]}.{value.__name__}")
        for module_name, class_name, attr, name in LOCAL:
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name, None)
            if owner is not None and inspect.isfunction(vars(owner).get(attr)):
                self._patch(owner, attr, name)
        required = (f"{owner}.{attr}" for owner, attr in REQUIRED)
        return [label for label in required if label not in self._labels]

    def _patch(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        prefix = (f"{owner.__module__}.{owner.__qualname__}" if inspect.isclass(owner)
                  else owner.__name__)
        self._labels.add(f"{prefix}.{attr}")
        setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._labels.clear()

    @contextmanager
    def installed(self):
        missing = self.install()
        try:
            yield missing
        finally:
            self.uninstall()

    # -- accounting --------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += (end - start) - child_time[i]
        return out

    def tags(self, name: str) -> list:
        return [tag for span_name, _, _, _, tag in self.spans if span_name == name]
