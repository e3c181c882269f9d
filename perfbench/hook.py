"""Run one lu-flow command inside a benchmark operation, instrumented.

    python3 perfbench/hook.py {time|trace} OPDIR <lu-flow arguments>

The command goes through ``lu_flow.cli.main``, the function the ``lu-flow``
console script calls.

``time`` records only what the end-to-end metrics need.  Each process
appends JSON lines to ``OPDIR/timing.<pid>``: its first time step, the end of
every member run (with the run's step count and the process's peak RSS), and,
in the command's own process, the end of ``main`` with resource usage.  The
lines are written as they happen because forked pool workers exit without
running exit handlers.  After its first call the time-step hook unbinds
itself, so the steps run untouched.

``trace`` wraps every public function of the lu_flow modules at every module
binding its callers look up, plus the first use of each ``OperatorContext``
cache, ``WienerPath`` construction, CSV and manifest writing, the process pool
and ``numpy.fft.fft2``/``ifft2`` (counted, not timed).  Spans
``[name, start, end, parent, fft_slices, fft_bytes, extra]`` are kept in
memory and written to ``OPDIR/spans.json`` when ``main`` returns.  Forked
worker processes restore the unwrapped functions, so only the command's own
process is traced.

All times come from CLOCK_MONOTONIC (``time.monotonic`` on Linux), which
every process of the machine shares, so they compare with those of run.py.
"""

from __future__ import annotations

import inspect
import json
import os
import resource
import sys
import time

MODULES = ("spectral", "noise", "operators", "solver", "diagnostics", "config", "cli")
# private names that carry work a per-layer metric needs
EXTRA_FUNCTIONS = {"cli": ("_write_csv",)}
CACHED_PROPERTIES = ("a_pad", "us", "us_pad", "div_a_grad_us", "phi_stack",
                     "additive_noise_parts")


def _usage(who) -> dict:
    r = resource.getrusage(who)
    return {"cpu_s": r.ru_utime + r.ru_stime, "maxrss_kib": r.ru_maxrss}


def _lu_flow_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "lu_flow" or name.startswith("lu_flow."))]


def _bindings(obj):
    """Every (module, name) in lu_flow that is bound to ``obj``."""
    return [(mod, name) for mod in _lu_flow_modules()
            for name, value in list(vars(mod).items()) if value is obj]


def _rebind(old, new) -> None:
    for mod, name in _bindings(old):
        setattr(mod, name, new)


# ---------------------------------------------------------------------------
# time mode

def log_timing(opdir: str, *fields) -> None:
    with open(os.path.join(opdir, f"timing.{os.getpid()}"), "a") as fh:
        fh.write(json.dumps(fields) + "\n")


def install_timing(opdir: str) -> None:
    from lu_flow import solver

    step, run = solver.step, solver.run

    def first_step(*args, **kwargs):
        log_timing(opdir, "first_step", time.monotonic())
        _rebind(first_step, step)
        return step(*args, **kwargs)

    def timed_run(config, *args, **kwargs):
        record = run(config, *args, **kwargs)
        log_timing(opdir, "run_end", time.monotonic(), config.n_steps,
                   _usage(resource.RUSAGE_SELF)["maxrss_kib"])
        return record

    _rebind(step, first_step)
    _rebind(run, timed_run)


# ---------------------------------------------------------------------------
# trace mode

class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self._patched: list[tuple] = []

    def open(self, name: str) -> list:
        rec = [name, time.monotonic(), 0.0, self.stack[-1] if self.stack else -1, 0, 0, 0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[2] = time.monotonic()
        self.stack.pop()

    def wrap(self, name: str, fn, extra=None):
        def traced(*args, **kwargs):
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if extra is not None:
                    rec[6] = extra(result)
                return result
            finally:
                self.close(rec)
        traced.__wrapped__ = fn
        return traced

    def count_fft(self, fn):
        def counted(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            if self.stack:
                rec = self.spans[self.stack[-1]]
                rec[4] += a.size // (a.shape[-1] * a.shape[-2])
                rec[5] += a.nbytes + out.nbytes
            return out
        return counted

    def first_use(self, name: str, prop: property) -> property:
        """Span only the call that fills a context cache; later hits go straight through."""
        filled = {}

        def fget(ctx):
            key = (id(ctx._cache), name)
            if key in filled:
                return prop.fget(ctx)
            filled[key] = ctx._cache  # keeps the id from being reused
            rec = self.open(name)
            try:
                return prop.fget(ctx)
            finally:
                self.close(rec)
        return property(fget, doc=prop.__doc__)

    def patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def rebind(self, old, new) -> None:
        for mod, name in _bindings(old):
            self.patch(mod, name, new)

    def unpatch(self) -> None:
        for owner, attr, old in reversed(self._patched):
            setattr(owner, attr, old)
        self._patched.clear()


def install_trace(tracer: Tracer) -> None:
    import importlib
    from concurrent.futures import ProcessPoolExecutor

    import numpy.fft

    mods = {name: importlib.import_module(f"lu_flow.{name}") for name in MODULES}
    for short, mod in mods.items():
        for name, fn in list(vars(mod).items()):
            public = not name.startswith("_") or name in EXTRA_FUNCTIONS.get(short, ())
            if public and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                extra = _snapshot_bytes if (short, name) == ("solver", "run") else None
                tracer.rebind(fn, tracer.wrap(f"{short}.{name}", fn, extra))

    ctx_cls = mods["operators"].OperatorContext
    for prop in CACHED_PROPERTIES:
        tracer.patch(ctx_cls, prop,
                     tracer.first_use(f"operators.OperatorContext.{prop}", vars(ctx_cls)[prop]))
    path_cls = mods["noise"].WienerPath
    tracer.patch(path_cls, "__init__", tracer.wrap("noise.WienerPath", path_cls.__init__))
    manifest_cls = mods["config"].RunManifest
    tracer.patch(manifest_cls, "write", tracer.wrap("config.RunManifest.write", manifest_cls.write))

    class TracedPool(ProcessPoolExecutor):
        def __enter__(self):
            self._span = tracer.open("cli.pool")
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.close(self._span)

    tracer.patch(mods["cli"], "ProcessPoolExecutor", TracedPool)
    for name in ("fft2", "ifft2"):
        tracer.patch(numpy.fft, name, tracer.count_fft(getattr(numpy.fft, name)))
    os.register_at_fork(after_in_child=tracer.unpatch)


def _snapshot_bytes(record) -> int:
    return sum(s.coeffs.nbytes for s in record.snapshots or ())


# ---------------------------------------------------------------------------

def main() -> int:
    mode, opdir, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if mode not in ("time", "trace"):
        raise SystemExit(f"unknown mode {mode!r}")
    tracer = Tracer() if mode == "trace" else None
    t_import = time.monotonic()
    import lu_flow.cli
    imported = time.monotonic()
    if tracer is not None:
        install_trace(tracer)
    else:
        install_timing(opdir)
    try:
        return lu_flow.cli.main(argv)
    finally:
        end = time.monotonic()
        usage = {"self": _usage(resource.RUSAGE_SELF),
                 "children": _usage(resource.RUSAGE_CHILDREN)}
        log_timing(opdir, "main_end", end, usage)
        if tracer is not None:
            with open(os.path.join(opdir, "spans.json"), "w") as fh:
                json.dump({"import": [t_import, imported], "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
