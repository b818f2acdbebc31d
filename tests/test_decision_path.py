"""Bit-exact contract of the controller's fast decision path.

The epoch step (``DvfsController.observe`` + ``decide``) runs inlined
code: memoised per-frequency power terms, an allocation-free PC-table
lookup, float accumulation over locals and an inlined WF-STALL line.
Each test here pits that code against a reference written from the
plain composition it replaces (``domain_power`` / ``predicted_activity``
/ ``LinearSensitivity`` sums / ``interval_line``) on generated inputs,
and requires equality - ``==`` on choices and exact type + bit pattern
on floats, never ``approx``.
"""

from __future__ import annotations

from typing import List, Optional

from hypothesis import given, settings, strategies as st

from repro.config import PowerConfig, small_config
from repro.core.estimators import WavefrontEstimate, WavefrontStallModel, interval_line
from repro.core.objectives import (
    EDnPObjective,
    ObjectiveContext,
    PerformanceCapObjective,
    QoSDeadlineObjective,
    StaticObjective,
)
from repro.core.pc_table import PCTable, PCTableConfig
from repro.core.predictors import ObserveContext, PCBasedPredictor
from repro.core.sensitivity import LinearSensitivity
from repro.dvfs.hierarchy import HierarchicalPowerManager, PowerManagedObjective
from repro.gpu.cu import CuEpochStats
from repro.gpu.gpu import EpochResult, WaveEpochRecord
from repro.gpu.wavefront import WavefrontStats
from repro.power.model import POWER_TERMS_CACHE_SIZE, PowerModel

EXACT = settings(derandomize=True, database=None, max_examples=100, deadline=None)

GRID = small_config().dvfs.frequencies_ghz


def exact(x):
    """A float's type and bit pattern (``-0.0`` differs from ``0.0``)."""
    return (type(x).__name__, float(x).hex())


def exact_line(line: Optional[LinearSensitivity]):
    return None if line is None else (exact(line.i0), exact(line.slope))


# ----------------------------------------------------------------------
# References: the composition the fast path replaced


def ref_cu_power(pm: PowerModel, f: float, activity: float) -> float:
    v = pm.voltage(f)
    consumed = pm.dynamic_power_per_cu(f, activity) + pm.leakage_power_per_cu(f)
    return consumed / pm.ivr_efficiency(v)


def ref_predict(line: LinearSensitivity, f: float) -> float:
    return max(0.0, line.i0 + line.slope * f)


def ref_domain_power(ctx: ObjectiveContext, line: LinearSensitivity, f: float) -> float:
    slots = ctx.epoch_ns * f * ctx.issue_width * ctx.n_cus_in_domain
    activity = 0.0 if slots <= 0 else min(1.0, ref_predict(line, f) / slots)
    return ref_cu_power(ctx.power, f, activity) * ctx.n_cus_in_domain + ctx.memory_power_share


def ref_choose(obj, line, grid, current_f, ctx):
    if isinstance(obj, StaticObjective):
        return obj.f_ghz
    if isinstance(obj, EDnPObjective):
        if line is None:
            return current_f
        f_ref = ctx.reference_freq_ghz
        p_ref = ref_domain_power(ctx, line, f_ref)
        i_ref = max(ref_predict(line, f_ref), 1.0)
        price = obj.price_scale * (obj.n + 1) * p_ref / i_ref
        best_f, best_cost = current_f, float("inf")
        for f in grid:
            cost = ref_domain_power(ctx, line, f) - price * ref_predict(line, f)
            if cost < best_cost:
                best_cost, best_f = cost, f
        return best_f
    if isinstance(obj, PerformanceCapObjective):
        if line is None:
            return grid[-1]
        required = (1.0 - obj.max_degradation) * ref_predict(line, grid[-1])
        best_f, best_power = grid[-1], float("inf")
        for f in grid:
            if ref_predict(line, f) + 1e-9 < required:
                continue
            power = ref_domain_power(ctx, line, f)
            if power < best_power:
                best_power, best_f = power, f
        return best_f
    assert isinstance(obj, QoSDeadlineObjective)
    if line is None:
        return grid[-1]
    best, best_power = None, float("inf")
    for f in grid:
        if ref_predict(line, f) + 1e-9 < obj.target:
            continue
        power = ref_domain_power(ctx, line, f)
        if power < best_power:
            best_power, best = power, f
    return best if best is not None else grid[-1]


class RefPCTable(PCTable):
    """The table's update/lookup as two separate index and key passes."""

    def _key(self, pc_idx):
        return (pc_idx * self.config.instruction_bytes) >> self.config.offset_bits

    def update(self, pc_idx, line):
        entry = self._entries[self.index_of_instruction(pc_idx)]
        key = self._key(pc_idx)
        w = self.config.update_weight
        if entry.valid and entry.pc_key != key:
            self.evictions += 1
        if entry.valid and entry.pc_key == key and w < 1.0:
            entry.i0 = (1 - w) * entry.i0 + w * line.i0
            entry.slope = (1 - w) * entry.slope + w * line.slope
        else:
            entry.i0 = line.i0
            entry.slope = line.slope
        entry.valid = True
        entry.pc_key = key
        self.updates += 1

    def lookup(self, pc_idx):
        self.lookups += 1
        entry = self._entries[self.index_of_instruction(pc_idx)]
        if not entry.valid:
            return None
        if entry.pc_key == self._key(pc_idx):
            self.hits += 1
        return LinearSensitivity(entry.i0, entry.slope)


class RefStallModel(WavefrontStallModel):
    """WF-STALL through ``interval_line`` and a fresh line per step."""

    def estimate_wavefronts(self, result, cu_id, f_ghz, f_lo_ghz, f_hi_ghz, config):
        records = result.wave_records[cu_id]
        t = result.duration_ns
        n = max(1, len(records))
        out = []
        for r in records:
            s = r.stats
            t_async = min(t, s.stall_ns + s.barrier_stall_ns)
            t_core = t - t_async
            line = interval_line(s.committed, t_core, t_async, f_ghz, f_lo_ghz, f_hi_ghz)
            if self.age_kappa > 0.0 and n > 1:
                shift = self.age_kappa * (r.age_rank / (n - 1))
                mid_f = 0.5 * (f_lo_ghz + f_hi_ghz)
                moved = shift * max(0.0, line.i0) * 0.1
                line = LinearSensitivity(line.i0 - moved, line.slope + moved / mid_f)
            out.append(WavefrontEstimate(r, line))
        return out


def ref_predict_domains(pred: PCBasedPredictor) -> List[Optional[LinearSensitivity]]:
    result = pred._last_result
    if result is None:
        return [None] * pred.config.n_domains
    per = pred.config.cus_per_domain
    out: List[Optional[LinearSensitivity]] = []
    for d in range(pred.config.n_domains):
        total = LinearSensitivity.zero()
        seen_any = False
        for cu_id in range(d * per, (d + 1) * per):
            table = pred.table_for_cu(cu_id)
            for record in result.wave_records[cu_id]:
                seen_any = True
                line = table.lookup(record.next_pc_idx)
                if line is None:
                    line = pred._last_wave_lines.get(record.wf_id, LinearSensitivity.zero())
                total = total + line
        out.append(total if seen_any else None)
    return out


# ----------------------------------------------------------------------
# Strategies

coords = st.floats(-2e4, 2e5, allow_nan=False, allow_infinity=False)
lines = st.one_of(
    st.none(),
    st.builds(
        LinearSensitivity,
        i0=st.one_of(coords, st.sampled_from([0.0, -0.0, -500.0])),
        slope=st.one_of(coords, st.sampled_from([0.0, -0.0])),
    ),
)
off_grid_f = st.floats(0.05, 4.0, allow_nan=False)


@st.composite
def grids(draw):
    """A window of the DVFS grid as PowerManagedObjective passes it
    (every frequency up to the manager's f_max), or off-grid points."""
    if draw(st.booleans()):
        return GRID[: draw(st.integers(1, len(GRID)))]
    return tuple(sorted(draw(st.lists(off_grid_f, min_size=1, max_size=8))))


@st.composite
def contexts(draw):
    return ObjectiveContext(
        power=PowerModel(PowerConfig()),
        epoch_ns=draw(st.sampled_from([250.0, 1000.0, 4000.0])),
        n_cus_in_domain=draw(st.integers(1, 8)),
        issue_width=draw(st.integers(1, 4)),
        memory_power_share=draw(st.floats(0.0, 8.0)),
        reference_freq_ghz=draw(st.sampled_from(GRID)),
    )


objectives = st.one_of(
    st.builds(EDnPObjective, n=st.integers(0, 3),
              price_scale=st.sampled_from([0.25, 1.0, 1.7, 4.0])),
    st.builds(PerformanceCapObjective,
              st.sampled_from([0.0, 0.05, 0.1, 0.5, 0.9])),
    st.builds(QoSDeadlineObjective, st.floats(1.0, 2e5)),
    st.builds(StaticObjective, st.sampled_from(GRID)),
)


# ----------------------------------------------------------------------
# Power model


class TestPowerTerms:
    @EXACT
    @given(f=st.one_of(st.sampled_from(GRID), off_grid_f),
           activity=st.floats(-2.0, 3.0, allow_nan=False))
    def test_cu_power_equals_dynamic_plus_leakage_over_efficiency(self, f, activity):
        pm = PowerModel(PowerConfig())
        want = exact(ref_cu_power(pm, f, activity))
        assert exact(pm.cu_power(f, activity)) == want  # fills the memo
        assert exact(pm.cu_power(f, activity)) == want  # reads it

    def test_memo_is_capped_and_exact_past_the_cap(self):
        pm = PowerModel(PowerConfig())
        freqs = [0.5 + i * 0.01 for i in range(3 * POWER_TERMS_CACHE_SIZE)]
        for f in freqs:
            assert exact(pm.cu_power(f, 0.6)) == exact(ref_cu_power(pm, f, 0.6))
        assert len(pm._terms) == POWER_TERMS_CACHE_SIZE
        for f in freqs:  # memoised and unmemoised frequencies alike
            assert exact(pm.cu_power(f, 0.3)) == exact(ref_cu_power(pm, f, 0.3))

    def test_memo_stays_out_of_equality_and_hashing(self):
        warm, cold = PowerModel(PowerConfig()), PowerModel(PowerConfig())
        warm.cu_power(1.7, 0.5)
        assert warm == cold and hash(warm) == hash(cold)
        assert "_terms" not in repr(warm)


# ----------------------------------------------------------------------
# Objectives


class TestObjectiveChoice:
    @EXACT
    @given(obj=objectives, line=lines, grid=grids(), ctx=contexts(),
           current=st.sampled_from(GRID))
    def test_choose_equals_domain_power_composition(self, obj, line, grid, ctx, current):
        if current > grid[-1]:  # PowerManagedObjective clamps into the window
            current = grid[-1]
        assert obj.choose(line, grid, current, ctx) == ref_choose(obj, line, grid, current, ctx)
        if line is not None:
            for f in grid:
                assert exact(ctx.domain_power(line, f)) == exact(ref_domain_power(ctx, line, f))

    @EXACT
    @given(n=st.integers(0, 3), price_scale=st.sampled_from([0.3, 1.0, 2.5]),
           frac=st.floats(-1.0, 1.0), ctx=contexts(),
           pair=st.lists(off_grid_f, min_size=2, max_size=2, unique=True))
    def test_ednp_flips_at_the_same_slope(self, n, price_scale, frac, ctx, pair):
        """Choice equality alone rarely sees a last-bit cost change; at
        the slope where the reference's argmin flips it does. Bisect to
        two adjacent floats that choose differently: any reordered float
        op moves the flip and disagrees at one of them. Lines are scaled
        to the domain's issue slots, so the activity is rarely clamped."""
        obj = EDnPObjective(n, price_scale)
        grid = tuple(sorted(pair))
        slots = ctx.epoch_ns * grid[-1] * ctx.issue_width * ctx.n_cus_in_domain
        i0 = frac * slots

        def ref_at(slope):
            return ref_choose(obj, LinearSensitivity(i0, slope), grid, grid[0], ctx)

        lo, hi = -2.0 * slots, 2.0 * slots
        if ref_at(lo) == ref_at(hi):
            return
        while True:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if ref_at(mid) == ref_at(lo):
                lo = mid
            else:
                hi = mid
        for slope in (lo, hi):
            got = obj.choose(LinearSensitivity(i0, slope), grid, grid[0], ctx)
            assert got == ref_at(slope)

    @EXACT
    @given(obj=objectives, line=lines, ctx=contexts(),
           max_idx=st.integers(0, len(GRID) - 1), current=st.sampled_from(GRID))
    def test_power_managed_window(self, obj, line, ctx, max_idx, current):
        manager = HierarchicalPowerManager(GRID, power_budget=10.0)
        manager._max_idx = max_idx
        managed = PowerManagedObjective(obj, manager)
        window = GRID[: max_idx + 1]
        want = ref_choose(obj, line, window, min(current, window[-1]), ctx)
        assert managed.choose(line, GRID, current, ctx) == want


# ----------------------------------------------------------------------
# WF-STALL estimator and the PC-indexed predictor


durations = st.one_of(st.just(1000.0), st.just(0.0), st.floats(0.0, 3000.0))


@st.composite
def wave_stats(draw):
    s = WavefrontStats()
    s.committed = draw(st.integers(0, 4000))
    s.stall_ns = draw(st.floats(0.0, 4000.0))
    s.barrier_stall_ns = draw(st.one_of(st.just(0.0), st.floats(0.0, 1500.0)))
    return s


@st.composite
def epoch_results(draw, n_cus: int, n_domains: int, t_start: float):
    duration = draw(durations)
    records = []
    for _ in range(n_cus):
        n = draw(st.integers(0, 5))
        ranks = draw(st.permutations(range(n)))
        records.append(tuple(
            WaveEpochRecord(
                wf_id=draw(st.integers(0, 9)),
                age_rank=ranks[i],
                start_pc_idx=draw(st.integers(0, 300)),
                next_pc_idx=draw(st.integers(0, 300)),
                stats=draw(wave_stats()),
            )
            for i in range(n)
        ))
    return EpochResult(
        t_start=t_start,
        t_end=t_start + duration,
        frequencies_ghz=tuple(draw(st.sampled_from(GRID)) for _ in range(n_domains)),
        cu_stats=tuple(CuEpochStats() for _ in range(n_cus)),
        wave_records=tuple(records),
        transitions=0,
    )


class TestWavefrontStall:
    @EXACT
    @given(data=st.data(), kappa=st.sampled_from([0.0, 0.35, 1.0]),
           f=st.sampled_from(GRID), flat=st.booleans())
    def test_lines_equal_interval_line_composition(self, data, kappa, f, flat):
        result = data.draw(epoch_results(1, 1, 0.0))
        f_lo, f_hi = (1.7, 1.7) if flat else (GRID[0], GRID[-1])
        got = WavefrontStallModel(kappa).estimate_wavefronts(result, 0, f, f_lo, f_hi, None)
        want = RefStallModel(kappa).estimate_wavefronts(result, 0, f, f_lo, f_hi, None)
        assert [e.record for e in got] == [e.record for e in want]
        assert [exact_line(e.line) for e in got] == [exact_line(e.line) for e in want]


class TestPCPredictor:
    @EXACT
    @given(
        data=st.data(),
        n_cus=st.sampled_from([1, 2, 4]),
        per_domain=st.sampled_from([1, 2]),
        share=st.booleans(),
        table_config=st.builds(
            PCTableConfig,
            n_entries=st.sampled_from([1, 4, 128]),
            offset_bits=st.sampled_from([0, 4, 6]),
            update_weight=st.sampled_from([1.0, 0.5]),
        ),
        n_epochs=st.integers(1, 6),
    )
    def test_predictions_and_counters_equal_lookup_reference(
        self, data, n_cus, per_domain, share, table_config, n_epochs
    ):
        per_domain = min(per_domain, n_cus)
        gpu = small_config(n_cus=n_cus, cus_per_domain=per_domain).gpu
        per_table = n_cus if share else 1
        fast = PCBasedPredictor(gpu, table_config=table_config, cus_per_table=per_table)
        ref = PCBasedPredictor(gpu, estimator=RefStallModel(),
                               table_config=table_config, cus_per_table=per_table)
        ref.tables = [RefPCTable(table_config) for _ in ref.tables]
        ctx = ObserveContext(config=gpu, f_lo_ghz=GRID[0], f_hi_ghz=GRID[-1])
        assert fast.predict_domains() == ref_predict_domains(ref)
        t = 0.0
        for _ in range(n_epochs):
            result = data.draw(epoch_results(n_cus, gpu.n_domains, t))
            t = result.t_end
            fast.observe(result, ctx)
            ref.observe(result, ctx)
            got = [exact_line(x) for x in fast.predict_domains()]
            assert got == [exact_line(x) for x in ref_predict_domains(ref)]
            assert fast.table_stats() == ref.table_stats()
