"""Run passes of a workload plan in a fresh process; report timings and outputs.

Reads ``{"plan": ..., "trace": bool, "passes": int, "deadline_s": float}`` as
JSON on stdin and prints one JSON object on stdout. ``run.py`` starts it with
``PYTHONPATH`` set to the checkout's ``src/``, BLAS/OpenMP pools capped at one
thread and ``CPLATTICE_THREADS`` removed, so every sum runs with threads=1.

After warm-up, each untraced pass runs in a child forked from the warmed-up
worker, so nothing the package might cache during one pass survives into the
next. A traced run makes one pass in the worker itself.

Each group of a pass reports ``parts_s``: one list per op of the times of its
timed parts. A sweep row is one part; a custom call group times each of its
seven calls. Untraced passes also cut every part into chunks at the clock
marks of :class:`Marks`; the worker takes each chunk's median over the passes
and reports, per group, the sum of those medians for every part
(``fine_parts_s``). Untraced passes also run pieces of the reference
computation of ``calibration.py`` all through the pass; the worker reports
their typical time (``calibration_piece_s``).
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import pickle
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy

import cplattice
from cplattice import cli, kernels, lattice_sum
from cplattice import euler_maclaurin as em

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibration  # noqa: E402
from tracer import Tracer  # noqa: E402


class Marks:
    """Clock marks at every entry to and exit from the program's inner calls.

    The quad boundary (``lattice_sum.quad``) and the kernels rows are wrapped
    at the names their callers look up, as the tracer wraps them, but the
    wrappers only read the clock. The marks cut each timed part into chunks
    of tens of microseconds to a few milliseconds, at the same points of the
    same deterministic computation in every pass, so the passes can be merged
    chunk by chunk: a burst of load from other tenants then spoils one pass
    of a few chunks rather than the whole of a part that lasts seconds. A
    callable the package no longer has is not marked; its part is then cut
    only at part boundaries.

    With ``calibrate`` set, the first mark or part boundary after every
    ``calibration.INTERVAL_S`` runs one piece of the reference computation
    (``calibration.py``) and keeps its time in ``pieces``. The clock the
    marks read stops while a piece runs, so no chunk contains one. The pieces
    sample the host's speed all through a pass, at the moments the program
    runs; pieces run only at the ends of a pass tracked it far worse.
    """

    TARGETS = ((lattice_sum, "quad"), (kernels, "res_row_zz"), (kernels, "res_row_zx"))

    def __init__(self, calibrate: bool = False):
        self.calibrate = calibrate
        self.t: list[float] = []
        self.pieces: list[float] = []
        self._paused = 0.0
        self._next_piece = 0.0
        self._saved: list[tuple] = []

    def reset(self) -> None:
        """Start a pass: no marks, no pieces, a piece at the first reading."""
        self.t.clear()
        self.pieces.clear()
        self._paused = self._next_piece = 0.0

    def clock(self) -> float:
        """``perf_counter()`` less the time spent in calibration pieces."""
        now = time.perf_counter()
        if self.calibrate and now >= self._next_piece:
            self.pieces.append(calibration.piece())
            after = time.perf_counter()
            self._paused += after - now
            self._next_piece = after + calibration.INTERVAL_S
            now = after
        return now - self._paused

    def install(self) -> None:
        for owner, attr in self.TARGETS:
            original = getattr(owner, attr, None)
            if original is not None:
                setattr(owner, attr, self._marked(original))
                self._saved.append((owner, attr, original))

    def _marked(self, original):
        append, clock = self.t.append, self.clock

        @functools.wraps(original)
        def marked(*args, **kwargs):
            append(clock())
            try:
                return original(*args, **kwargs)
            finally:
                append(clock())
        return marked

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def here(self) -> tuple[float, int]:
        """A part boundary: the clock and the number of marks so far."""
        return self.clock(), len(self.t)

    def chunks(self, start, end) -> numpy.ndarray:
        """Chunk durations of the part between two boundaries from :meth:`here`."""
        return numpy.diff([start[0], *self.t[start[1]:end[1]], end[0]])


def median_chunks(per_pass):
    """One group's chunks in every pass, merged: per op and part, the sum
    over chunks of each chunk's median over the passes. None when a pass
    failed the group or the passes did not cut it at the same points."""
    if any(c is None for c in per_pass):
        return None
    shapes = [[[x.shape for x in op] for op in c] for c in per_pass]
    if any(s != shapes[0] for s in shapes):
        return None
    return [[float(numpy.median(numpy.stack(xs), axis=0).sum()) for xs in zip(*parts)]
            for parts in zip(*per_pass)]


class DeadlinePassed(Exception):
    """The plan overran its hard time cap; unfinished ops count as failed."""


class RowStream(io.TextIOBase):
    """The output stream handed to the CLI: keeps each CSV line and the time
    it arrived, and stops the sweep once the deadline has passed."""

    def __init__(self, deadline: float, marks: Marks):
        self.deadline = deadline
        self.marks = marks
        self.lines: list[str] = []
        self.bounds: list[tuple[float, int]] = []
        self._buf = ""

    def write(self, s):
        now = self.marks.here()
        self._buf += s
        while "\n" in self._buf:
            line, self._buf = self._buf.split("\n", 1)
            self.lines.append(line)
            self.bounds.append(now)
        if time.perf_counter() > self.deadline:
            raise DeadlinePassed("deadline passed during sweep")
        return len(s)


def _error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def run_sweep(group, deadline, marks):
    stream, notes = RowStream(deadline, marks), io.StringIO()
    err = None
    start = marks.here()
    with contextlib.redirect_stdout(stream), contextlib.redirect_stderr(notes):
        try:
            rc = cli.main(group["argv"])
        except Exception as exc:  # an aborted sweep is reported, not fatal
            rc, err = None, _error(exc)
    # row i is timed from the row before it; row 0 from the start of the call,
    # so the rows cover the whole sweep up to its last line
    bounds = [start] + stream.bounds[1:]
    rows = list(zip(bounds, bounds[1:]))
    return {"parts_s": [[b[0] - a[0]] for a, b in rows],
            "chunks": [[marks.chunks(a, b)] for a, b in rows],
            "rc": rc, "error": err, "stderr": notes.getvalue(), "lines": stream.lines}


def _bundle(g, e0, en):
    return cplattice.validate(
        cplattice.ModelParams(mu=g["mu"], rho=g["rho"], test_dipole=e0, array_dipole=en),
        cplattice.LatticeSpec(a_tilde=g["a_tilde"], half_extent=g["half_extent"]),
        cplattice.Geometry(z_tilde=g["z_tilde"]))


# Calls go through module attributes (lattice_sum.sum_lattice, em.edge_term),
# the names the tracer wraps.

def _timed_calls(calls, marks):
    """Run ``{name: thunk}`` in order; return (seconds per call, chunks per
    call, values)."""
    times, chunks, values = [], [], {}
    for name, thunk in calls.items():
        start = marks.here()
        values[name] = thunk()
        end = marks.here()
        times.append(end[0] - start[0])
        chunks.append(marks.chunks(start, end))
    return times, chunks, values


def run_custom(g, marks):
    b = _bundle(g, tuple(g["test_dipole"]), tuple(g["array_dipole"]))
    return _timed_calls({
        "resonant_direct": lambda: lattice_sum.sum_lattice(b, "resonant", threads=1).resonant,
        "offresonant_direct":
            lambda: lattice_sum.sum_lattice(b, "off_resonant", threads=1).off_resonant,
        "res_bulk": lambda: em.bulk_term(b, "resonant"),
        "res_edge": lambda: em.edge_term(b, "resonant"),
        "or_edge": lambda: em.edge_term(b, "off_resonant"),
        "res_vertex": lambda: em.vertex_term(b, "resonant"),
        "or_vertex": lambda: em.vertex_term(b, "off_resonant")}, marks)


def warm_up(workload):
    """First calls of each code path, on inputs outside the plan."""
    if workload.startswith("sweep"):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(["sweep", "--a-tilde", "1.5", "--half-extent", "2", "--z-min", "0.5",
                      "--z-max", "0.6", "--points-per-decade", "8", "--threads", "1"])
    else:
        g = {"mu": 0.5, "rho": 1e-6, "a_tilde": 0.5, "half_extent": 1, "z_tilde": 1.0}
        b = _bundle(g, (0.6, 0.0, 0.8), (0.0, 0.8, 0.6))
        for kind in ("resonant", "off_resonant"):
            lattice_sum.sum_lattice(b, kind, threads=1)
            em.vertex_term(b, kind)
        em.bulk_term(b, "resonant")
        em.edge_term(b, "resonant")


def run_pass(plan, deadline, marks) -> dict:
    marks.reset()
    groups = []
    t0 = marks.clock()  # pass wall times leave calibration pieces out
    for g in plan["groups"]:
        if time.perf_counter() > deadline:
            groups.append({"error": "not started: deadline passed"})
        elif g["type"] == "sweep":
            groups.append(run_sweep(g, deadline, marks))
        else:
            try:
                call_s, chunks, out = run_custom(g, marks)
                groups.append({"parts_s": [call_s], "chunks": [chunks], "values": out})
            except Exception as exc:  # QuadratureFailure, SiteBudgetExceeded, ...
                groups.append({"error": _error(exc)})
    return {"wall_s": marks.clock() - t0, "groups": groups,
            "calibration": numpy.array(marks.pieces),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def median_piece(per_pass) -> float | None:
    """Typical calibration piece time: the mean over piece positions of each
    position's median over the passes, the statistic the chunks get."""
    n = min(len(p) for p in per_pass)
    if n == 0:
        return None
    return float(numpy.median(numpy.stack([p[:n] for p in per_pass]), axis=0).mean())


def in_child(fn, *args):
    """Return ``fn(*args)``, computed in a forked child and sent back pickled.

    Forking is safe here: the worker starts no threads, and its BLAS/OpenMP
    pools are capped at one thread.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never returns into the caller
        status = 0
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump(fn(*args), fh, protocol=pickle.HIGHEST_PROTOCOL)
        except BaseException:
            traceback.print_exc()
            status = 1
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"pass child exited with status {status}")
    return pickle.loads(data)


def main() -> int:
    job = json.loads(sys.stdin.read())
    plan = job["plan"]
    deadline = time.perf_counter() + job["deadline_s"]
    warm_up(plan["workload"])
    tracer = Tracer() if job["trace"] else None
    passes, chunks, pieces = [], [], []
    if tracer:
        tracer.install()
        try:
            passes.append(run_pass(plan, deadline, Marks()))
        finally:
            tracer.restore()
    else:
        marks = Marks(calibrate=True)
        marks.install()
        try:
            # passes after the deadline are not started; an op cut short in a
            # started pass fails, because its outputs then differ from pass 1
            while len(passes) < job["passes"] and (not passes or time.perf_counter() < deadline):
                passes.append(in_child(run_pass, plan, deadline, marks))
        finally:
            marks.restore()
    for p in passes:
        chunks.append([g.pop("chunks", None) for g in p["groups"]])
        pieces.append(p.pop("calibration"))
    out = {
        "passes": passes,
        # per group, per op, per part: the sum of the chunks' medians over passes
        "fine_parts_s": [median_chunks(list(c)) for c in zip(*chunks)],
        "chunks_per_pass": sum(x.size for g in chunks[0] if g for op in g for x in op),
        "calibration_pieces_per_pass": min(map(len, pieces)),
        "calibration_piece_s": median_piece(pieces),
        "calibration_reference_piece_s": calibration.REFERENCE_PIECE_S,
        "cplattice_file": cplattice.__file__,
        "backend": kernels.backend_name(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if tracer:
        out["layers"] = tracer.metrics()
        out["spans"] = tracer.dump()
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
