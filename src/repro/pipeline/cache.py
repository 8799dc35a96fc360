"""On-disk profile cache.

Profiling is by far the expensive half of the pipeline (the simulator walks
per-warp traces cycle by cycle), yet every harness re-simulates launches it
has seen before: Table 3 profiles each case twice, Figure 7 profiles the same
baselines again, and a second run of either starts from zero.  The cache
stores each :class:`~repro.sampling.sample.KernelProfile` as JSON under a key
that digests *everything the simulation depends on*:

* the binary (encoded code sections, line tables, inline info, resources),
* the kernel symbol and the launch configuration,
* the workload specification — including callable trip counts, which are
  digested through their code objects (bytecode, referenced names, constants,
  closures, defaults) so behaviourally different lambdas digest differently,
* the architecture model (all hardware limits and latency overrides),
* the PC sampling period,
* the simulation cycle bound (``max_cycles``), so a truncated simulation is
  never replayed as a full one, and
* the simulation scope, so a cached single-wave profile never replays as a
  whole-GPU one (or vice versa), and
* the memory model.

Changing any of these misses; repeating a run hits and skips the simulator.
Writes go through a temporary file and :func:`os.replace` so concurrent
worker processes never observe a torn entry, and every *mutation* (store,
invalidate, clear) additionally holds a :class:`CacheLock` — an advisory
``flock`` on ``<dir>/.cache.lock`` — so one cache directory is safe to
share between multiple daemons on a host, not just between the worker
processes of one daemon.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
import threading
import types
from dataclasses import fields
from pathlib import Path
from typing import Optional, Union

try:  # pragma: no cover - present on every POSIX build we target
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

from repro.arch.machine import GpuArchitecture
from repro.cubin.binary import Cubin
from repro.sampling.sample import KernelProfile, LaunchConfig
from repro.sampling.simulator import DEFAULT_MAX_CYCLES
from repro.sampling.workload import WorkloadSpec

#: Bump when the digest scheme or the profile JSON schema changes shape.
#: Version 4: profiles record the memory model (flat vs hierarchy) and its
#: statistics, and the key digests the memory model, so hierarchy-on/off
#: profiles never collide.
#: Version 5: the key digested the simulator backend ("object" or "vector").
#: Version 6: one simulator core remains, so the key drops the backend.
CACHE_SCHEMA_VERSION = 6


# ----------------------------------------------------------------------
# Stable value descriptions (the digest input)
# ----------------------------------------------------------------------
def _describe_type(cls: type, seen: frozenset) -> str:
    """Digest of the behaviour a class contributes to its instances.

    Covers every attribute defined across the MRO (most-derived definition
    winning, ``object`` excluded): methods by their code, properties by their
    accessors, plain class attributes by value — so an instance used as a
    workload callable misses the cache when a helper method its ``__call__``
    delegates to is edited, not only when ``__call__`` itself changes.
    """
    ignored = {
        "__dict__",
        "__weakref__",
        "__doc__",
        "__module__",
        "__qualname__",
        "__annotations__",
        "__firstlineno__",
        "__static_attributes__",
        # copyreg caches this on the class as a side effect of pickling an
        # instance, so its presence depends on digest history, not behaviour.
        "__slotnames__",
        # Field reprs embed the memory address of dataclasses.MISSING; the
        # generated __init__/__eq__ (already in vars) carry the behaviour.
        "__dataclass_fields__",
    }
    members = {}
    for klass in cls.__mro__:
        if klass is object:
            continue
        for name, attr in vars(klass).items():
            if name not in ignored and name not in members:
                members[name] = attr
    parts = []
    for name in sorted(members):
        attr = members[name]
        if isinstance(attr, (staticmethod, classmethod)):
            attr = attr.__func__
        if isinstance(attr, property):
            described = ":".join(
                _describe(getattr(attr, slot), seen)
                for slot in ("fget", "fset", "fdel")
                if getattr(attr, slot) is not None
            )
        else:
            described = _describe(attr, seen)
        parts.append(f"{name}={described}")
    return f"type:{cls.__module__}.{cls.__qualname__}(" + ";".join(parts) + ")"


def _describe_state(value, seen: frozenset) -> str:
    """A description of the state a callable's receiver contributes.

    Builtin containers and scalars (a bound ``{...}.get``, for instance) are
    described structurally — their contents *are* their state.  Other objects
    are captured through ``__reduce_ex__`` when possible, because only the
    reduce protocol sees state held at C level (``random.Random``'s seed
    state lives in the ``_random.Random`` base, invisible to ``__dict__`` and
    slots).  Objects that cannot reduce contribute their ``__dict__`` merged
    with every slot across the MRO (a class may define both, and base-class
    slots must not be dropped); objects with no visible state at all digest
    by identity — a guaranteed miss across runs, never a wrong replay.
    """
    if isinstance(value, types.ModuleType):
        # Builtin functions are "bound" to their module; its name suffices.
        return f"module:{value.__name__}"
    if value is None or isinstance(
        value, (dict, list, tuple, set, frozenset, str, bytes, bytearray,
                int, float, complex)
    ):
        return _describe(value, seen)
    try:
        reduced = value.__reduce_ex__(4)
    except Exception:
        reduced = None
    if reduced is not None:
        # __reduce_ex__ exposes state held at C level (random.Random's seed
        # lives in the _random.Random base, invisible to __dict__ and
        # slots).  Describing the reduction structurally — instead of
        # hashing raw pickle bytes — keeps sets and dicts canonical across
        # interpreter runs regardless of hash seed.
        return f"reduce:{_describe(reduced, seen)}"
    instance_dict = getattr(value, "__dict__", None)
    state = dict(instance_dict or {})
    slotted = False
    for klass in type(value).__mro__:
        slots = klass.__dict__.get("__slots__", ()) or ()
        if isinstance(slots, str):
            slots = (slots,)
        for name in slots:
            slotted = True
            if name not in ("__dict__", "__weakref__") and name not in state:
                state[name] = getattr(value, name, None)
    if instance_dict is None and not slotted:
        # No pickle, no __dict__, no slots: any state is held at C level
        # where we cannot see it — digest by identity, so such receivers
        # can only ever miss, never wrongly hit.
        return f"opaque:{value!r}"
    return _describe(state, seen)


def _describe(value, _seen: frozenset = frozenset()) -> str:
    """A deterministic, recursive textual description of ``value``.

    Callables (workload trip counts may be lambdas) are described by
    everything their behaviour depends on — bytecode, the names it loads
    (globals, attributes, locals, free variables), constants (including
    nested code objects), closure values and argument defaults — so
    behaviourally different callables digest differently while reloading
    the same module digests identically.  Instances defining ``__call__``
    (and bound-method receivers) are digested through their class's full
    method suite plus the instance state, so editing a helper method the
    callable delegates to also misses; C-level callables by their qualified
    name.  ``repr`` is only the last resort for
    exotic callables with none of the above — those digest by identity and
    so never hit across interpreter runs (a wasted re-simulation, never a
    wrong replay).

    One deliberate gap: the *values* of module globals a callable reads are
    not digested (they may be modules or arbitrarily large objects).  If a
    workload callable's behaviour changes because a referenced global was
    rebound, bump :data:`CACHE_SCHEMA_VERSION` or clear the cache directory.
    """
    if id(value) in _seen:
        # A self-referential structure (e.g. a recursive closure whose cell
        # holds its own function): mark the back-edge instead of recursing
        # forever.  The marker is deterministic, so equal cyclic structures
        # still digest identically.
        return "<cycle>"
    seen = _seen | {id(value)}
    if isinstance(value, type):
        # A class used as a callable (or referenced from instance state):
        # its behaviour is the full method suite, not just its name.
        return f"class:{_describe_type(value, seen)}"
    if isinstance(value, types.CodeType):
        consts = ",".join(_describe(const, seen) for const in value.co_consts)
        names = ",".join(
            value.co_names + value.co_varnames + value.co_freevars + value.co_cellvars
        )
        return (
            f"code:{value.co_name}:{value.co_flags}:{value.co_code.hex()}"
            f":({names}):[{consts}]"
        )
    if isinstance(value, functools.partial):
        return (
            f"partial:{_describe(value.func, seen)}"
            f":{_describe(tuple(value.args), seen)}"
            f":{_describe(dict(value.keywords), seen)}"
        )
    if callable(value):
        code = getattr(value, "__code__", None)
        if code is not None:
            closure = getattr(value, "__closure__", None) or ()
            cells = ",".join(_describe(cell.cell_contents, seen) for cell in closure)
            defaults = _describe(tuple(getattr(value, "__defaults__", None) or ()), seen)
            kwdefaults = _describe(
                dict(getattr(value, "__kwdefaults__", None) or {}), seen
            )
            # Bound methods forward __code__ from their function; the
            # receiver's state and class (sibling methods the code may call)
            # are part of their behaviour too.
            owner = getattr(value, "__self__", None)
            receiver = (
                ""
                if owner is None
                else f":{_describe_state(owner, seen)}"
                f":{_describe_type(type(owner), seen)}"
            )
            return (
                f"callable:{getattr(value, '__qualname__', '?')}"
                f":{_describe(code, seen)}:[{cells}]:{defaults}:{kwdefaults}{receiver}"
            )
        wrapped = getattr(value, "__wrapped__", None)
        if wrapped is not None and wrapped is not value:
            # A C-level wrapper around a Python callable (functools.lru_cache
            # and friends): the wrapped function's behaviour is the
            # wrapper's behaviour.
            return (
                f"wrapped:{getattr(value, '__qualname__', '?')}"
                f":{_describe(wrapped, seen)}"
            )
        call = getattr(type(value), "__call__", None)
        if getattr(call, "__code__", None) is not None:
            # An instance defining __call__ in Python: behaviour is the full
            # method suite of its class (the __call__ may delegate to helper
            # methods) plus whatever instance state it reads.
            return (
                f"instance:{_describe_type(type(value), seen)}"
                f":{_describe_state(value, seen)}"
            )
        name = getattr(value, "__qualname__", None) or getattr(value, "__name__", None)
        if name is not None:
            # A C-level callable (builtin function or bound C method): the
            # qualified name is stable across interpreter runs; bound C
            # methods additionally digest their receiver's state.
            owner = getattr(value, "__self__", None)
            receiver = (
                "" if owner is None else f":{_describe_state(owner, seen)}"
            )
            return f"builtin:{getattr(value, '__module__', '?')}.{name}{receiver}"
        return f"callable:{value!r}"
    if isinstance(value, dict):
        # Order by the described key, not repr: plain-object keys digest
        # addresslessly, but their reprs would order by memory address.
        items = sorted(
            f"{_describe(key, seen)}={_describe(value[key], seen)}" for key in value
        )
        return "{" + ",".join(items) + "}"
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(_describe(item, seen) for item in value)) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_describe(item, seen) for item in value) + "]"
    if type(value).__repr__ is object.__repr__:
        # A plain instance with the default (address-bearing) repr — e.g. a
        # config object a trip-count lambda closes over: digest its class
        # behaviour and attribute state instead, as the bound-method
        # receiver path already does, so equal objects hit across runs.
        return (
            f"object:{_describe_type(type(value), seen)}"
            f":{_describe_state(value, seen)}"
        )
    return repr(value)


def _describe_workload(workload: WorkloadSpec) -> str:
    parts = [
        f"{field.name}={_describe(getattr(workload, field.name))}"
        for field in sorted(fields(workload), key=lambda field: field.name)
    ]
    return "workload(" + ";".join(parts) + ")"


def _describe_architecture(architecture: GpuArchitecture) -> str:
    parts = [
        f"{field.name}={_describe(getattr(architecture, field.name))}"
        for field in sorted(fields(architecture), key=lambda field: field.name)
    ]
    return "arch(" + ";".join(parts) + ")"


def profile_cache_key(
    cubin: Cubin,
    kernel_name: str,
    config: LaunchConfig,
    workload: WorkloadSpec,
    architecture: GpuArchitecture,
    sample_period: int,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    simulation_scope: str = "single_wave",
    memory_model: str = "flat",
) -> str:
    """The cache key of one simulated kernel launch.

    ``max_cycles`` bounds the simulation loop and therefore the recorded
    counts, so a truncated simulation must never be replayed as a full one;
    ``simulation_scope`` selects the engine (single-wave extrapolation vs.
    measured whole-GPU), so profiles from one scope must never replay as the
    other; ``memory_model`` selects the memory system (flat latency vs. the
    L1/L2/DRAM hierarchy), whose profiles differ in both timing and recorded
    statistics.  (``keep_samples`` is deliberately absent: it only controls
    whether raw samples are retained on the transient ``SimulationResult``,
    which is not cached — replays always return ``simulation=None``.)
    """
    hasher = hashlib.sha256()
    for token in (
        f"v{CACHE_SCHEMA_VERSION}",
        json.dumps(cubin.to_dict(), sort_keys=True),
        kernel_name,
        f"grid={config.grid_blocks};tpb={config.threads_per_block};"
        f"smem={config.shared_memory_bytes}",
        _describe_workload(workload),
        _describe_architecture(architecture),
        f"period={sample_period}",
        f"max_cycles={max_cycles}",
        f"scope={simulation_scope}",
        f"memory_model={memory_model}",
    ):
        hasher.update(token.encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()


# ----------------------------------------------------------------------
# The cache proper
# ----------------------------------------------------------------------
class CacheLock:
    """A reentrant cross-process mutex on a cache directory.

    Combines a thread :class:`~threading.RLock` (handler threads of one
    daemon) with an advisory ``flock`` on ``<dir>/.cache.lock``
    (daemons sharing the directory).  The OS drops the flock automatically
    if the holder dies, so a SIGKILL'd daemon can never wedge its
    neighbours.  On platforms without :mod:`fcntl` the file lock degrades
    to the thread lock alone — single-process safety is preserved.
    """

    def __init__(self, directory: Union[str, Path]):
        self.path = Path(directory) / ".cache.lock"
        self._thread_lock = threading.RLock()
        self._depth = 0
        self._handle = None

    def __enter__(self) -> "CacheLock":
        self._thread_lock.acquire()
        self._depth += 1
        if self._depth == 1 and fcntl is not None:
            try:
                handle = open(self.path, "a+b")
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
                self._handle = handle
            except OSError:  # pragma: no cover - exotic filesystems
                # A filesystem that refuses flock (some network mounts):
                # fall back to thread-level locking rather than failing
                # every cache write.
                self._handle = None
        return self

    def __exit__(self, *exc_info) -> None:
        if self._depth == 1 and self._handle is not None:
            try:
                fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
            finally:
                self._handle.close()
                self._handle = None
        self._depth -= 1
        self._thread_lock.release()

    @property
    def held(self) -> bool:
        """Whether this process currently holds the lock (for tests)."""
        return self._depth > 0


class ProfileCache:
    """A directory of cached kernel profiles, one JSON file per key."""

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.lock = CacheLock(self.directory)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.profile.json"

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def get(self, key: str) -> Optional[KernelProfile]:
        """The cached profile for ``key``, or ``None`` on a miss."""
        path = self.path_for(key)
        try:
            text = path.read_text()
        except OSError:
            self.misses += 1
            return None
        try:
            profile = KernelProfile.from_json(text)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError):
            # A torn or stale entry — including valid JSON of the wrong
            # shape: treat as a miss and let the writer replace it.
            self.misses += 1
            return None
        self.hits += 1
        return profile

    def put(self, key: str, profile: KernelProfile) -> Path:
        """Store ``profile`` under ``key`` (atomic, last writer wins).

        Held under :attr:`lock`, so daemons sharing the directory
        serialize their writes; readers never need the lock because
        :func:`os.replace` publishes entries atomically.
        """
        path = self.path_for(key)
        with self.lock:
            handle, tmp_name = tempfile.mkstemp(
                dir=self.directory, prefix=".tmp-", suffix=".json"
            )
            try:
                with os.fdopen(handle, "w") as stream:
                    stream.write(profile.to_json())
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
            self.stores += 1
        return path

    def invalidate(self, key: str) -> bool:
        """Drop the entry for ``key`` (the API's ``refresh`` cache policy).

        Returns whether an entry existed; racing with another process's
        removal counts as "did not exist".
        """
        with self.lock:
            try:
                self.path_for(key).unlink()
            except FileNotFoundError:
                return False
        return True

    def clear(self) -> int:
        """Delete every cached entry; returns the number removed.

        Race-safe like :meth:`put`/:meth:`get`: an entry another process
        removes between the listing and the unlink is simply skipped.
        """
        removed = 0
        with self.lock:
            for path in self.directory.glob("*.profile.json"):
                try:
                    path.unlink()
                except FileNotFoundError:
                    continue
                removed += 1
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.profile.json"))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProfileCache({str(self.directory)!r}, entries={len(self)}, "
            f"hits={self.hits}, misses={self.misses})"
        )


def coerce_cache(cache: Union[None, str, Path, ProfileCache]) -> Optional[ProfileCache]:
    """Accept a cache instance or a directory path (or ``None``)."""
    if cache is None or isinstance(cache, ProfileCache):
        return cache
    return ProfileCache(cache)
