"""Native iteration fast path: one C call per captured PSO iteration.

An eager iteration runs its *body* — pbest claim, gbest reduction, two
Philox draws, velocity/position update — through the launch pipeline as a
chain of NumPy ufunc sweeps.  This module compiles that body
(``_fastpath.c``, via the shared :mod:`repro.gpusim.native` loader) into a
single ``fastpath_step`` call operating in place on the run's stable
buffers.  It is the steady-state tier of the launch-graph lifecycle
(:mod:`repro.gpusim.graph`); every run it does not take runs eagerly.  The
module provides:

* :class:`NativePlan` — the per-run binding: a C-side ``fastpath_plan``
  struct built once from the swarm state, the workspace weight buffers,
  the RNG key schedule and the float64 base velocity bounds, plus the
  per-call :meth:`~NativePlan.step` that syncs the scalar gbest fields
  in/out and advances the Philox cursor;
* :func:`build_native` — the native tier's iteration, shared by both
  engine families: evaluate, one :meth:`NativePlan.step` with the
  scheduled inertia and the adaptive velocity fraction (the C call scales
  the bounds), then one pass over the capture's ``(section, seconds)``
  charges (the eager float additions, in order), with the dynamic
  pbest-copy slot taken from a per-plan table priced once per improved
  count and a GPU engine's pool-hit alloc/free pair folded into the
  captured allocator delta.  The capture may be this run's own or a
  verified one from the plan cache (:mod:`repro.gpusim.graph`): the step
  binds only this run's buffers;
* :func:`verify_step` — the promotion gate used on the validate iteration:
  the *trusted* traced eager iteration runs on the real state, the C step
  on shadow copies of the pre-iteration state, and every output buffer
  must match bitwise.  Unverified native code never touches the real run;
  a mismatch demotes it to eager.

Bit-parity contract: the C step performs, per element, the exact IEEE
operation sequence of the NumPy scratch fast path (see ``_fastpath.c``),
claims pbest/gbest with the same strict-``<`` / first-NaN order, and
consumes exactly ``2 * ceil(n*d / 4)`` Philox blocks per iteration — the
same stream consumption :func:`repro.core.swarm.draw_weights` performs.

Set ``REPRO_NO_NATIVE_FASTPATH=1`` to disable (checked on every load);
no compiler or a failed known-answer self-test silently fall back to
eager execution.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np

from repro.gpusim import native
from repro.gpusim.alloc import AllocatorStats, CachingAllocator, size_class

__all__ = ["load", "available", "NativePlan", "build_native", "verify_step", "ENV_GATE"]

ENV_GATE = "REPRO_NO_NATIVE_FASTPATH"

_SOURCE = Path(__file__).with_name("_fastpath.c")
_PHILOX_SOURCE = Path(__file__).with_name("_philox.c")


class _PlanStruct(ctypes.Structure):
    """ctypes mirror of ``fastpath_plan`` in ``_fastpath.c`` (same order)."""

    _fields_ = [
        ("n", ctypes.c_uint64),
        ("d", ctypes.c_uint64),
        ("stream_id", ctypes.c_uint64),
        ("positions", ctypes.c_void_p),
        ("velocities", ctypes.c_void_p),
        ("pbest_positions", ctypes.c_void_p),
        ("pbest_values", ctypes.c_void_p),
        ("l_weights", ctypes.c_void_p),
        ("g_weights", ctypes.c_void_p),
        ("gbest_value", ctypes.c_void_p),
        ("gbest_index", ctypes.c_void_p),
        ("gbest_position", ctypes.c_void_p),
        ("keys", ctypes.c_void_p),
        ("pos_lo", ctypes.c_void_p),
        ("pos_hi", ctypes.c_void_p),
        ("vel_lo", ctypes.c_void_p),
        ("vel_hi", ctypes.c_void_p),
        ("vlo", ctypes.c_void_p),
        ("vhi", ctypes.c_void_p),
        ("c1", ctypes.c_float),
        ("c2", ctypes.c_float),
    ]


def _require_f32(name: str, arr: np.ndarray, shape: tuple) -> None:
    if arr.dtype != np.float32 or not arr.flags.c_contiguous or arr.shape != shape:
        raise ValueError(f"{name} must be C-contiguous float32 {shape}")


def _make_struct(
    n: int,
    d: int,
    stream_id: int,
    positions: np.ndarray,
    velocities: np.ndarray,
    pbest_positions: np.ndarray,
    pbest_values: np.ndarray,
    l_weights: np.ndarray,
    g_weights: np.ndarray,
    gbest_value: np.ndarray,
    gbest_index: np.ndarray,
    gbest_position: np.ndarray,
    keys_addr: int,
    pos_lo: np.ndarray | None,
    pos_hi: np.ndarray | None,
    vel: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None,
    c1: float,
    c2: float,
) -> _PlanStruct:
    """*vel* is ``(base_lo, base_hi, lo_out, hi_out)``: the float64 base
    velocity bounds and the two float32 ``(d,)`` buffers the step writes
    each iteration's bounds into, or ``None`` when unclamped."""
    for name, arr in (
        ("positions", positions),
        ("velocities", velocities),
        ("pbest_positions", pbest_positions),
        ("l_weights", l_weights),
        ("g_weights", g_weights),
    ):
        _require_f32(name, arr, (n, d))
    _require_f32("gbest_position", gbest_position, (d,))
    if pbest_values.dtype != np.float64 or not pbest_values.flags.c_contiguous:
        raise ValueError("pbest_values must be C-contiguous float64")
    if vel is not None:
        for arr, dtype in zip(vel, (np.float64, np.float64, np.float32, np.float32)):
            if arr.dtype != dtype or not arr.flags.c_contiguous or arr.shape != (d,):
                raise ValueError("velocity bound buffers must be contiguous (d,)")
    vel_addrs = (None,) * 4 if vel is None else tuple(a.ctypes.data for a in vel)
    return _PlanStruct(
        n=n,
        d=d,
        stream_id=stream_id,
        positions=positions.ctypes.data,
        velocities=velocities.ctypes.data,
        pbest_positions=pbest_positions.ctypes.data,
        pbest_values=pbest_values.ctypes.data,
        l_weights=l_weights.ctypes.data,
        g_weights=g_weights.ctypes.data,
        gbest_value=gbest_value.ctypes.data,
        gbest_index=gbest_index.ctypes.data,
        gbest_position=gbest_position.ctypes.data,
        keys=keys_addr,
        pos_lo=None if pos_lo is None else pos_lo.ctypes.data,
        pos_hi=None if pos_hi is None else pos_hi.ctypes.data,
        vel_lo=vel_addrs[0],
        vel_hi=vel_addrs[1],
        vlo=vel_addrs[2],
        vhi=vel_addrs[3],
        c1=c1,
        c2=c2,
    )


def _self_test(lib: ctypes.CDLL) -> bool:
    """One full iteration, C vs the reference numerics, compared bitwise.

    The case is deliberately awkward: ``n*d = 30`` exercises the partial
    final Philox block, ``values`` contains a NaN (must never claim) and an
    exact tie (strict ``<`` keeps the earlier best), and both the velocity
    clamp and the position clip are active.  The clamp runs through the
    adaptive path: float64 base bounds that float32 cannot represent,
    scaled in C by a fraction that is not a power of two.
    """
    from repro.core.parameters import PAPER_DEFAULTS
    from repro.core.swarm import (
        SwarmState,
        draw_weights,
        gbest_scan,
        pbest_update,
        velocity_update,
    )
    from repro.gpusim.rng import ParallelRNG

    n, d = 6, 5
    params = PAPER_DEFAULTS
    init = ParallelRNG(seed=123, stream_id=0)
    positions = init.uniform((n, d), -5.0, 5.0, dtype=np.float32)
    velocities = init.uniform((n, d), -1.0, 1.0, dtype=np.float32)
    pbest_pos = init.uniform((n, d), -5.0, 5.0, dtype=np.float32)
    pbest_val = init.uniform((n,), 0.0, 50.0, dtype=np.float64)
    values = init.uniform((n,), 0.0, 60.0, dtype=np.float64)
    values[0] = np.nan  # NaN never claims
    values[1] = -1.0  # guaranteed claim -> guaranteed gbest claim
    values[3] = pbest_val[3]  # exact tie keeps the earlier best
    gval0, gidx0 = float(pbest_val[2]), 2
    gpos0 = pbest_pos[2].copy()
    vb_hi = init.uniform((d,), 1.0, 3.0, dtype=np.float64)
    vb64 = (-vb_hi, vb_hi)
    frac = 1.0 - (1.0 - 0.02) * (7 / 24)
    plo = np.full(d, -4.0, dtype=np.float32)
    phi = np.full(d, 4.0, dtype=np.float32)

    # Reference: the shared module numerics, in eager order.
    rng_ref = ParallelRNG(seed=0xC0FFEE, stream_id=9)
    state = SwarmState(
        positions=positions.copy(),
        velocities=velocities.copy(),
        pbest_values=pbest_val.copy(),
        pbest_positions=pbest_pos.copy(),
        gbest_value=gval0,
        gbest_index=gidx0,
        gbest_position=gpos0.copy(),
    )
    mask = pbest_update(state, values)
    gbest_scan(state)
    l_ref = np.empty((n, d), dtype=np.float32)
    g_ref = np.empty((n, d), dtype=np.float32)
    draw_weights(rng_ref, n, d, out=(l_ref, g_ref))
    velocity_update(
        state.velocities,
        state.positions,
        state.pbest_positions,
        state.gbest_position,
        l_ref,
        g_ref,
        params,
        (vb64[0] * frac, vb64[1] * frac),
        out=state.velocities,
        scratch=(
            np.empty((n, d), dtype=np.float32),
            np.empty((n, d), dtype=np.float32),
        ),
    )
    state.positions += state.velocities
    np.clip(state.positions, plo, phi, out=state.positions)

    # Native: same inputs through the C step.
    rng_nat = ParallelRNG(seed=0xC0FFEE, stream_id=9)
    c_pos, c_vel = positions.copy(), velocities.copy()
    c_pbv, c_pbp = pbest_val.copy(), pbest_pos.copy()
    c_l = np.empty((n, d), dtype=np.float32)
    c_g = np.empty((n, d), dtype=np.float32)
    c_gval = np.array([gval0], dtype=np.float64)
    c_gidx = np.array([gidx0], dtype=np.int64)
    c_gpos = gpos0.copy()
    vel = (*vb64, np.empty(d, dtype=np.float32), np.empty(d, dtype=np.float32))
    struct = _make_struct(
        n, d, rng_nat.stream_id,
        c_pos, c_vel, c_pbp, c_pbv, c_l, c_g,
        c_gval, c_gidx, c_gpos, rng_nat._keys_addr,
        plo, phi, vel, float(params.cognitive), float(params.social),
    )
    improved = lib.fastpath_step(
        ctypes.addressof(struct),
        values.ctypes.data,
        rng_nat.position,
        float(params.inertia),
        frac,
    )
    return (
        int(improved) == int(np.count_nonzero(mask))
        and c_pos.tobytes() == state.positions.tobytes()
        and c_vel.tobytes() == state.velocities.tobytes()
        and c_pbv.tobytes() == state.pbest_values.tobytes()
        and c_pbp.tobytes() == state.pbest_positions.tobytes()
        and c_l.tobytes() == l_ref.tobytes()
        and c_g.tobytes() == g_ref.tobytes()
        and float(c_gval[0]) == state.gbest_value
        and int(c_gidx[0]) == state.gbest_index
        and c_gpos.tobytes()
        == np.ascontiguousarray(state.gbest_position, dtype=np.float32).tobytes()
    )


_MODULE = native.NativeModule(
    "fastpath",
    [_SOURCE, _PHILOX_SOURCE],
    env_gate=ENV_GATE,
    fn_specs={
        "fastpath_step": (
            ctypes.c_int64,
            # plan*, values*, block0, w, frac — raw addresses so the
            # per-iteration call builds no ctypes wrapper objects.
            [
                ctypes.c_void_p,
                ctypes.c_void_p,
                ctypes.c_uint64,
                ctypes.c_float,
                ctypes.c_double,
            ],
        ),
    },
    self_test=_self_test,
)


def load() -> ctypes.CDLL | None:
    """The bound fast-path library, or ``None`` when unavailable/disabled."""
    return _MODULE.load()


def available() -> bool:
    return _MODULE.available()


class NativePlan:
    """The per-run native binding: one struct, one hot call per iteration.

    Built by :func:`build_native` from a verified capture.  The struct
    holds raw addresses of the run's stable buffers (swarm matrices,
    workspace weight buffers, RNG key schedule) plus small plan-owned
    buffers for the scalar gbest fields and the iteration's float32
    velocity bounds; :meth:`step` syncs the gbest scalars from/to the
    ``SwarmState`` around the C call, so host-side observers (history
    recording, multi-GPU best exchange) keep seeing plain Python floats.

    ``state.gbest_position`` is re-pointed at the plan's own ``(d,)``
    buffer so the C claim can update it in place; an identity check each
    step re-syncs if outside code (e.g. multi-GPU ``_exchange_best``)
    re-assigned the attribute between iterations.
    """

    __slots__ = (
        "state",
        "rng",
        "n",
        "d",
        "blocks",
        "l_weights",
        "g_weights",
        "gval",
        "gidx",
        "gpos",
        "_fn",
        "_struct",
        "_addr",
        "_pos_lo",
        "_pos_hi",
        "_vel",
        "_c1",
        "_c2",
    )

    def __init__(
        self,
        lib: ctypes.CDLL,
        state,
        rng,
        l_weights: np.ndarray,
        g_weights: np.ndarray,
        params,
        pos_bounds: tuple[np.ndarray, np.ndarray] | None,
        vel_bounds: tuple[np.ndarray, np.ndarray] | None,
    ) -> None:
        n, d = state.positions.shape
        self.state = state
        self.rng = rng
        self.n, self.d = n, d
        self.blocks = 2 * ((n * d + 3) // 4)
        self.l_weights = l_weights
        self.g_weights = g_weights
        self.gval = np.array([state.gbest_value], dtype=np.float64)
        self.gidx = np.array([state.gbest_index], dtype=np.int64)
        self.gpos = np.ascontiguousarray(state.gbest_position, dtype=np.float32).copy()
        if pos_bounds is None:
            self._pos_lo = self._pos_hi = None
        else:
            self._pos_lo = np.ascontiguousarray(pos_bounds[0], dtype=np.float32)
            self._pos_hi = np.ascontiguousarray(pos_bounds[1], dtype=np.float32)
        if vel_bounds is None:
            self._vel = None
        else:
            self._vel = (
                np.ascontiguousarray(vel_bounds[0], dtype=np.float64),
                np.ascontiguousarray(vel_bounds[1], dtype=np.float64),
                np.empty(d, dtype=np.float32),
                np.empty(d, dtype=np.float32),
            )
        self._c1 = float(params.cognitive)
        self._c2 = float(params.social)
        self._fn = lib.fastpath_step
        self._struct = _make_struct(
            n, d, rng.stream_id,
            state.positions, state.velocities,
            state.pbest_positions, state.pbest_values,
            l_weights, g_weights,
            self.gval, self.gidx, self.gpos, rng._keys_addr,
            self._pos_lo, self._pos_hi, self._vel, self._c1, self._c2,
        )
        self._addr = ctypes.addressof(self._struct)

    def step(self, values: np.ndarray, w: float, frac: float) -> int:
        """One full iteration body in C; returns the improved-pbest count.

        *values* is this iteration's fitness vector (float64, contiguous —
        guaranteed by the evaluator contract and checked once during the
        verification iteration); *w* the scheduled inertia; *frac* the
        adaptive velocity-bound fraction (``1.0`` when not adaptive).
        """
        state, rng = self.state, self.rng
        # Sync the scalar gbest fields in (they are plain Python attributes
        # that outside code may have replaced since the last step).
        self.gval[0] = state.gbest_value
        self.gidx[0] = state.gbest_index
        if state.gbest_position is not self.gpos:
            np.copyto(self.gpos, state.gbest_position)
            state.gbest_position = self.gpos
        improved = self._fn(self._addr, values.ctypes.data, rng._block, w, frac)
        rng._block += self.blocks
        state.gbest_value = float(self.gval[0])
        state.gbest_index = int(self.gidx[0])
        return improved


def _step_inputs(engine, params):
    """A zero-argument callable returning this iteration's ``(w, frac)``.

    *w* is the scheduled inertia and *frac* the adaptive velocity-bound
    fraction, computed with the float operations of
    ``Engine._scheduled_params`` and ``Engine._current_velocity_bounds``
    (the C step scales the float64 base bounds by *frac*).
    """
    schedule = params.inertia_schedule
    inertia = params.inertia
    shrink = 1.0 - params.final_velocity_fraction
    adaptive = params.adaptive_velocity

    def inputs():
        progress = engine._progress
        w = inertia
        if schedule is not None:
            w = schedule.weight(progress)
            if not 0.0 <= w <= 2.0:
                # Out of range: raise exactly as the eager path does.
                w = engine._scheduled_params(params).inertia
        return w, (1.0 - shrink * progress if adaptive else 1.0)

    return inputs


def build_native(engine, graph, problem, params, state, rng, evaluate):
    """The native tier's ``(step, verify)`` pair, or why the run is ineligible.

    *graph* is the capture (:class:`~repro.gpusim.graph.LaunchGraph`) whose
    charges the step replays; *evaluate* the objective semantics.  The
    dynamic pbest-copy slot is priced per improved count, once per plan,
    through the engine's ``_pbest_copy_cost`` (the launcher's own cost
    path), and a GPU engine's ``pbest_copy`` profile row is updated as
    :meth:`~repro.gpusim.launch.Launcher.charge` would.  An engine with a
    device allocator (``graph.alloc_delta`` is recorded) allocates the
    float32 ``(n, d)`` weight buffers first in its last section and frees
    them last, in allocation order.  Their pool-hit alloc/free pair is
    folded into the captured allocator delta; real alloc/free calls take
    their captured slots whenever the fold does not hold (direct
    allocator, too few pooled blocks, a fault injector).
    """
    if params.topology != "global":
        return f"native-unsupported-topology:{params.topology}"
    lib = load()
    if lib is None:
        return "native-unavailable"
    n, d = state.n_particles, state.dim
    trace = graph.trace
    if graph.rng_blocks != 2 * ((n * d + 3) // 4):
        return "native-rng-shape-mismatch"
    dynamic = [i for i, (_, _, is_dynamic) in enumerate(trace) if is_dynamic]
    if len(dynamic) != 1 or any(label is None for label, _, _ in trace):
        return "native-unsupported-trace"
    dyn = dynamic[0]
    dyn_label = trace[dyn][0]
    charges = [(label, seconds) for label, seconds, _ in trace]
    head, tail = charges[:dyn], charges[dyn + 1:]
    alloc = None
    if graph.alloc_delta is not None:
        alloc, shape = engine.ctx.allocator, (n, d)
        delta = AllocatorStats(*graph.alloc_delta)
        k, last = delta.allocs, trace[-1][0]
        first = next(i for i, (label, _, _) in enumerate(trace) if label == last)
        end = len(trace) - k
        if (
            k < 1
            or delta.frees != k
            or delta.bytes_requested != k * n * d * 4
            or first <= dyn
            or end < first + k
        ):
            return "native-unsupported-trace"
        before_alloc, between = charges[dyn + 1:first], charges[first + k:end]
        nbytes_class = size_class(n * d * 4)
        foldable = isinstance(alloc, CachingAllocator) and not delta.pool_misses

    pos_bounds = None
    if params.clip_positions:
        pos_bounds = (problem.lower_bounds, problem.upper_bounds)
    l_w = engine._ws.array("l_weights", (n, d), np.float32)
    g_w = engine._ws.array("g_weights", (n, d), np.float32)
    plan = NativePlan(
        lib, state, rng, l_w, g_w, params, pos_bounds,
        problem.velocity_bounds(params.velocity_clamp),
    )
    clock = engine.clock
    inputs = _step_inputs(engine, params)
    launcher = getattr(getattr(engine, "ctx", None), "launcher", None)
    copy_cost = engine._pbest_copy_cost
    # improved count -> (head charges + the priced dynamic slot, profile row)
    copies: list = [None] * (n + 1)

    def step() -> None:
        values = evaluate(state.positions)
        improved = plan.step(values, *inputs())
        entry = copies[improved]
        if entry is None:
            seconds, row = copy_cost(improved, d)
            entry = copies[improved] = (head + [(dyn_label, seconds)], row)
        clock.add_charges(entry[0])
        if entry[1] is not None:
            name, cost, n_elems = entry[1]
            launcher.stats_row(name, dyn_label).add(cost, n_elems)
        if alloc is None or (foldable and alloc.fold_hits(nbytes_class, delta)):
            clock.add_charges(tail)
            return
        # No fold: real alloc/free calls in their captured slots.
        clock.add_charges(before_alloc)
        with clock.section(last):
            buffers = [alloc.alloc_like(shape, np.float32) for _ in range(k)]
            clock.add_charges(between)
            for buf in buffers:
                alloc.free(buf)

    def verify(run_reference) -> bool:
        return verify_step(plan, run_reference, evaluate, engine, params)

    return step, verify


def verify_step(plan: NativePlan, run_reference, eval_fn, engine, params) -> bool:
    """Promotion gate: run the real iteration, shadow-run the C step.

    Snapshots the pre-iteration state, lets the *trusted* reference (the
    validate iteration's traced eager body) mutate the real run, then
    executes the C step on the shadow copies (re-evaluating the objective
    on the pre-iteration positions — the evaluators are pure by contract)
    and compares every output buffer bitwise.  Returns ``True`` only on an
    exact match; the real run's trajectory is identical either way.
    Exceptions from the reference propagate (they are real-run failures);
    exceptions from the shadow path just return ``False``.
    """
    state, rng = plan.state, plan.rng
    n, d = plan.n, plan.d
    def real():
        return (
            state.positions,
            state.velocities,
            state.pbest_values,
            state.pbest_positions,
            np.ascontiguousarray(state.gbest_position, dtype=np.float32),
        )

    pre_pos, pre_vel, pre_pbv, pre_pbp, pre_gpos = (a.copy() for a in real())
    pre_gval = float(state.gbest_value)
    pre_gidx = int(state.gbest_index)
    pre_block = rng.position
    w, frac = _step_inputs(engine, params)()

    run_reference()

    try:
        if rng.position - pre_block != plan.blocks:
            return False
        values = eval_fn(pre_pos)
        if not (
            isinstance(values, np.ndarray)
            and values.dtype == np.float64
            and values.flags.c_contiguous
            and values.shape == (n,)
        ):
            return False
        sh_l = np.empty((n, d), dtype=np.float32)
        sh_g = np.empty((n, d), dtype=np.float32)
        sh_gval = np.array([pre_gval], dtype=np.float64)
        sh_gidx = np.array([pre_gidx], dtype=np.int64)
        struct = _make_struct(
            n, d, rng.stream_id,
            pre_pos, pre_vel, pre_pbp, pre_pbv, sh_l, sh_g,
            sh_gval, sh_gidx, pre_gpos, rng._keys_addr,
            plan._pos_lo, plan._pos_hi, plan._vel, plan._c1, plan._c2,
        )
        plan._fn(ctypes.addressof(struct), values.ctypes.data, pre_block, w, frac)
        shadow = (pre_pos, pre_vel, pre_pbv, pre_pbp, pre_gpos, sh_l, sh_g)
        return (
            all(
                a.tobytes() == b.tobytes()
                for a, b in zip(shadow, (*real(), plan.l_weights, plan.g_weights))
            )
            and float(sh_gval[0]) == state.gbest_value
            and int(sh_gidx[0]) == int(state.gbest_index)
        )
    except Exception:
        return False
