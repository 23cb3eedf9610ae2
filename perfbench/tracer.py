"""Outside-in span tracer for the tempomix modules.

The tracer replaces the public functions of each module with timing wrappers
for the duration of one traced command and puts the originals back afterwards,
so nothing under ``src/`` changes and untraced runs measure the unmodified
program. A wrapper is installed at every attribute a caller looks the function
up by: ``model`` imports ``embed_neighbors`` and ``time_encode_rows`` by name,
so patching ``encoders`` alone would miss those calls.

Spans are kept in memory as parallel columns (name, start, end, parent, run id)
and written out as JSON when the run ends. Backward steps are timed by
wrapping ``numcore.Tape.record``: each step is attributed to the innermost
forward span that was open when the step was recorded. While a step runs,
wrapped functions it calls are only counted, so every nanosecond of the
command lands in exactly one span's self or backward time.

Per-name aggregates, all times in nanoseconds:

- ``calls``: number of calls, including calls made inside backward steps;
- ``fwd``: inclusive span duration;
- ``self``: duration minus child spans and minus backward steps that ran
  directly inside the span (the steps ``numcore.backward`` replays);
- ``bwd``: time of the backward steps recorded under the span or any of its
  descendants;
- ``bwd_own``: the part of ``bwd`` recorded with the span innermost.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array

import numpy as np

# Modules whose public functions are wrapped, in the order their names are
# reported. ``cli`` has no ``__all__``; its public functions are used instead.
MODULES = ("tgraph", "encoders", "mixers", "numcore", "model", "traineval", "cli")

# Methods traced under a module-level span name.
METHODS = {("tgraph", "TemporalStore", "recent_neighbors"): "tgraph.recent_neighbors"}

# Free functions left unwrapped: ``tgraph.recent_neighbors`` only forwards to
# the method above and would otherwise report its calls twice;
# ``numcore.accumulate_grad`` runs only inside backward steps, whose time
# already belongs to the span that recorded them.
SKIP = {"tgraph.recent_neighbors", "numcore.accumulate_grad"}

# Spans that only dispatch; their self time is not counted as covered.
ENTRY_PREFIX = "cli."

_clock = time.perf_counter_ns


def public_functions(module):
    """(attribute, function) pairs a module defines and exposes."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = []
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            out.append((name, obj))
    return out


class Tracer:
    """Span recorder bound to the modules of one imported ``tempomix``.

    Use as a context manager: entering installs the wrappers, leaving
    restores every replaced attribute, also when the traced code raises.
    """

    def __init__(self, package, run_id: int = 0):
        self.package = package
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # span columns
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_depth = array("i")
        self.span_bwd = array("q")  # backward steps recorded with this span innermost
        # open spans, innermost last: index, and ns covered by children and
        # by backward steps run directly inside the span
        self._open_idx: list[int] = []
        self._covered: list[int] = []
        self._in_step = False
        # per-name aggregates, indexed by name id
        self.calls: list[int] = []
        self.fwd_ns: list[int] = []
        self.self_ns: list[int] = []
        # counters read at layer boundaries
        self.tape_steps = 0
        self.unattributed_steps = 0
        self.flops = 0
        self.pad_rows = 0
        self.block_rows = 0
        self.step_ns: list[int] = []
        self._step_start: int | None = None
        self._fit_depth = 0
        self._eval_depth = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- names -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.fwd_ns.append(0)
            self.self_ns.append(0)
        return nid

    # -- spans -------------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._open_idx[-1] if self._open_idx else -1)
        self.span_depth.append(len(self._open_idx))
        self.span_end.append(0)
        self.span_bwd.append(0)
        self._open_idx.append(idx)
        self._covered.append(0)
        self.span_start.append(_clock())
        return idx

    def _close(self, idx: int) -> None:
        end = _clock()
        if self._open_idx.pop() != idx:
            raise RuntimeError("tracer: spans closed out of order")
        covered = self._covered.pop()
        dur = end - self.span_start[idx]
        self.span_end[idx] = end
        nid = self.span_name[idx]
        self.calls[nid] += 1
        self.fwd_ns[nid] += dur
        self.self_ns[nid] += dur - covered
        if self._covered:
            self._covered[-1] += dur

    def _wrap(self, name: str, fn, hooks=None):
        nid = self._name_id(name)
        tracer = self
        open_, close = self._open, self._close

        if hooks is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if tracer._in_step:
                    tracer.calls[nid] += 1
                    return fn(*args, **kwargs)
                idx = open_(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)
            return wrapper

        before, after = hooks

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            if tracer._in_step:
                tracer.calls[nid] += 1
                return fn(*args, **kwargs)
            before(args)
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)
                after(args)
        return hooked

    # -- counters read from arguments --------------------------------------

    def _hooks(self):
        def nothing(_):
            pass

        def fit_in(_):
            self._fit_depth += 1

        def fit_out(_):
            self._fit_depth -= 1

        def eval_in(_):
            self._eval_depth += 1

        def eval_out(_):
            self._eval_depth -= 1

        def step_begin(_):
            # an optimiser step starts with its first negative draw
            if self._fit_depth and not self._eval_depth and self._step_start is None:
                self._step_start = _clock()

        def step_end(_):
            if self._step_start is not None:
                self.step_ns.append(_clock() - self._step_start)
                self._step_start = None

        def padding(args):
            block_len, pads = args[1], np.asarray(args[2])
            self.pad_rows += int(pads.sum())
            self.block_rows += len(pads) * int(block_len)

        return {
            "traineval.fit": (fit_in, fit_out),
            "traineval.evaluate": (eval_in, eval_out),
            "tgraph.sample_negative": (step_begin, nothing),
            "numcore.adam_step": (nothing, step_end),
            "numcore.mean_rows_blocks": (padding, nothing),
        }

    # -- backward steps and flops ------------------------------------------

    def _wrap_record(self, record):
        tracer = self

        @functools.wraps(record)
        def traced_record(tape, step):
            tracer.tape_steps += 1
            if not tracer._open_idx:
                tracer.unattributed_steps += 1
                return record(tape, step)
            owner = tracer._open_idx[-1]

            def timed_step():
                tracer._in_step = True
                t0 = _clock()
                try:
                    step()
                finally:
                    dur = _clock() - t0
                    tracer._in_step = False
                    tracer.span_bwd[owner] += dur
                    if tracer._covered:
                        tracer._covered[-1] += dur

            return record(tape, timed_step)

        return traced_record

    def _flops_property(self, slot):
        tracer = self

        def get(tape):
            return slot.__get__(tape, type(tape))

        def set_(tape, value):
            try:
                old = slot.__get__(tape, type(tape))
            except AttributeError:
                old = 0
            tracer.flops += value - old
            slot.__set__(tape, value)

        return property(get, set_)

    # -- install / restore -------------------------------------------------

    def _replace(self, owner, attr, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        pkg = self.package
        hooks = self._hooks()
        wrappers = {}  # id(original) -> (original, wrapper)
        for short in MODULES:
            module = getattr(pkg, short)
            for attr, fn in public_functions(module):
                name = f"{short}.{attr}"
                if name not in SKIP:
                    wrappers[id(fn)] = (fn, self._wrap(name, fn, hooks.get(name)))
        # every module attribute bound to a wrapped function, wherever imported
        owners = [pkg] + [getattr(pkg, short) for short in MODULES]
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._replace(owner, attr, hit[1])
        for (short, cls_name, attr), name in METHODS.items():
            cls = getattr(getattr(pkg, short), cls_name)
            self._replace(cls, attr, self._wrap(name, cls.__dict__[attr]))
        tape_cls = pkg.numcore.Tape
        self._replace(tape_cls, "record", self._wrap_record(tape_cls.__dict__["record"]))
        self._replace(tape_cls, "flops", self._flops_property(tape_cls.__dict__["flops"]))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- results -----------------------------------------------------------

    def _columns(self):
        n = len(self.span_start)
        return (np.frombuffer(self.span_name, dtype=np.int32, count=n),
                np.frombuffer(self.span_parent, dtype=np.int64, count=n),
                np.frombuffer(self.span_depth, dtype=np.int32, count=n),
                np.frombuffer(self.span_bwd, dtype=np.int64, count=n))

    def summary(self) -> dict[str, dict[str, int]]:
        """Per-name aggregates; see the module docstring for the kinds."""
        names, parents, depth, own = self._columns()
        subtree = own.copy()
        for d in range(int(depth.max(initial=0)), 0, -1):
            at = depth == d
            np.add.at(subtree, parents[at], subtree[at])
        k = len(self.names)
        bwd = np.bincount(names, weights=subtree, minlength=k)
        bwd_own = np.bincount(names, weights=own, minlength=k)
        return {
            name: {"calls": self.calls[i], "fwd": self.fwd_ns[i], "self": self.self_ns[i],
                   "bwd": int(bwd[i]), "bwd_own": int(bwd_own[i])}
            for i, name in enumerate(self.names)
        }

    def covered_ns(self) -> int:
        """Self plus backward time of every span below the CLI entry points."""
        return sum(agg["self"] + agg["bwd_own"]
                   for name, agg in self.summary().items()
                   if not name.startswith(ENTRY_PREFIX))

    def write_spans(self, path) -> None:
        """Spans as JSON columns; times in ns since the first span opened."""
        n = len(self.span_start)
        t0 = self.span_start[0] if n else 0
        doc = {
            "run_id": self.run_id,
            "names": self.names,
            "spans": {
                "name": self.span_name.tolist(),
                "start_ns": [s - t0 for s in self.span_start],
                "end_ns": [e - t0 for e in self.span_end],
                "parent": self.span_parent.tolist(),
                "run": [self.run_id] * n,
                "bwd_ns": self.span_bwd.tolist(),
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
