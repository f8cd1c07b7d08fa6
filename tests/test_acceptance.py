"""Acceptance gate: one test per end-to-end validation target.

Each test prints a single ``[criterion NN] PASS/FAIL`` line (visible with
``pytest -s``; the per-test PASSED/FAILED line of ``pytest -v`` mirrors it).
Simulation-heavy targets share module-scoped sweeps so the gate stays fast.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from contextlib import contextmanager

import numpy as np
import pytest

from mcwave.analytics import (
    expected_queue_length,
    queueing_delay,
    stationary_distribution,
    total_dissemination_delay,
    transmission_probability,
)
from mcwave.config import default_config
from mcwave.experiment import (
    MetricsTable,
    analytical_csv,
    emit_csv,
    interval_sweep,
    reachability_cdf,
    run_experiment,
    run_sweep,
)
from mcwave.mac import MacParams, frame_airtime
from mcwave.analytics import QueueParams, broadcast_window, optimal_decision_interval
from mcwave.radio import RadioParams, TrafficParams

import dataclasses

from helpers import METRICS_HEADER, elect_all_clusters, random_channel_scenario
from oracles import oracle_backoff_stationary, oracle_elect, simulate_chain, simulate_mm1b

SEEDS = tuple(range(1, 31))


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL — {label}")
        raise
    print(f"[criterion {number:02d}] PASS — {label}")


# ---------------------------------------------------------------------------
# Shared simulation sweeps
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def delay_sweep():
    sweep = run_sweep(
        default_config(), seeds=SEEDS, schemes=("cmd", "wsd", "legacy"), ys=(3, 4, 5)
    )
    assert not sweep.failures, f"sweep runs failed: {sweep.failures}"
    return sweep


@pytest.fixture(scope="module")
def flooding_sweep():
    sweep = run_sweep(
        default_config(), seeds=SEEDS, schemes=("cmd",), ys=(3,), floodings=("shbf",)
    )
    assert not sweep.failures, f"sweep runs failed: {sweep.failures}"
    return sweep


# ---------------------------------------------------------------------------
# 1. Back-off chain closed form vs. explicit transition matrix
# ---------------------------------------------------------------------------


def test_criterion_01_backoff_stationary_matches_power_iteration():
    grid = itertools.product((4, 8, 15, 32), (0.0, 0.3, 0.7), (0.2, 1.0), (0.3, 1.0))
    with criterion(1, "stationary distribution within 1e-9 of the matrix oracle"):
        worst = 0.0
        for w0, p_b, rho, p_a in grid:
            dist = stationary_distribution(w0, p_b, p_a, rho)
            occupancy, idle = oracle_backoff_stationary(w0, p_b, p_a, rho)
            err = float(np.max(np.abs(np.asarray(dist.occupancy) - occupancy)))
            err = max(err, abs(dist.idle - idle))
            worst = max(worst, err)
            assert err < 1e-9, (w0, p_b, rho, p_a, err)
            # the normalizer alone is the per-slot transmission probability
            assert dist.b0 == transmission_probability(w0, p_b, p_a, rho)
            assert dist.tau == dist.b0
        print(f"  48 grid points, worst |err| = {worst:.2e}")


# ---------------------------------------------------------------------------
# 2. Simulated back-off dynamics vs. closed-form tau
# ---------------------------------------------------------------------------


def test_criterion_02_simulated_chain_matches_tau():
    points = [
        (4, 0.0, 1.0, 1.0),
        (8, 0.3, 1.0, 1.0),
        (15, 0.7, 1.0, 1.0),
        (32, 0.0, 1.0, 1.0),
        (8, 0.3, 0.2, 0.3),
        (15, 0.0, 0.2, 1.0),
    ]
    with criterion(2, "1e6-slot transmission rate within 2% of tau at 6 points"):
        for i, (w0, p_b, rho, p_a) in enumerate(points):
            tau = transmission_probability(w0, p_b, p_a, rho)
            frac = simulate_chain(1, w0, p_b, p_a, rho, 1_000_000, np.random.default_rng(11 + i))
            rel = abs(frac - tau) / tau
            assert rel < 0.02, (w0, p_b, rho, p_a, frac, tau, rel)
            print(f"  w0={w0:2d} p_b={p_b} rho={rho} p_a={p_a}: "
                  f"sim={frac:.6f} tau={tau:.6f} rel={rel:.4%}")


# ---------------------------------------------------------------------------
# 3. Finite-queue moments vs. event-driven simulation
# ---------------------------------------------------------------------------


def test_criterion_03_queue_moments_match_event_simulation():
    mu = 1e4
    with criterion(3, "E[b], E[q] within 3% of a 1e6-arrival queue simulation"):
        for i, (rho, b) in enumerate(itertools.product((0.3, 0.7, 1.0), (1, 2, 5, 20))):
            sim_e_b, sim_e_q = simulate_mm1b(rho * mu, mu, b, 1_000_000, seed=1000 + i)
            e_b = expected_queue_length(rho, b)
            e_q = queueing_delay(rho * mu, mu, b)
            rel_b = abs(e_b - sim_e_b) / sim_e_b
            rel_q = abs(e_q - sim_e_q) / sim_e_q
            assert rel_b < 0.03, (rho, b, e_b, sim_e_b, rel_b)
            assert rel_q < 0.03, (rho, b, e_q, sim_e_q, rel_q)
        # the saturated branch is an exact closed form, not a fit
        for b in (1, 2, 5, 20):
            assert queueing_delay(mu, mu, b) == (b + 1) / (2.0 * mu)
        print("  12 (rho, B) combinations within 3%; rho = 1 branch exact")


# ---------------------------------------------------------------------------
# 4. Self-election vs. exhaustive minimum-average-distance search
# ---------------------------------------------------------------------------


def test_criterion_04_election_matches_exhaustive_search():
    rng = np.random.default_rng(2024)
    with criterion(4, "100 lossless scenarios agree with exhaustive election"):
        pairs = 0
        for scenario_index in range(100):
            positions, selected = random_channel_scenario(rng, n_vehicles=20, y=3)
            if scenario_index % 10 == 0:
                # co-locate two same-cluster vehicles so the tie rule is exercised
                by_sch: dict[int, list[int]] = {}
                for v, sch in selected.items():
                    by_sch.setdefault(sch, []).append(v)
                for members in by_sch.values():
                    if len(members) >= 2:
                        positions[members[1]] = positions[members[0]]
                        break
            winners = elect_all_clusters(positions, selected, 3)
            for k in range(1, 4):
                for z in range(1, 4):
                    if k == z:
                        continue
                    best = oracle_elect(positions, selected, k, z)
                    got = winners.get((k, z))
                    if best is None:
                        assert got is None, (scenario_index, k, z, got)
                    else:
                        assert got is not None and len(got) == 1, (scenario_index, k, z)
                        assert got[0][0] == best[0], (scenario_index, k, z, got, best)
                        assert got[0][1] == pytest.approx(best[1], abs=1e-9)
                    pairs += 1
        print(f"  {pairs} (cluster, target) pairs, 100% agreement")


# ---------------------------------------------------------------------------
# 5. Scheme ordering and analytical overlay across channel counts
# ---------------------------------------------------------------------------


def _totals_by_scheme(sweep, y: int) -> dict[str, dict[int, float]]:
    out: dict[str, dict[int, float]] = {"cmd": {}, "wsd": {}, "legacy": {}}
    for row in sweep.table.rows:
        if row.y == y and row.total_delay_us is not None:
            out[row.scheme][row.seed] = row.total_delay_us
    return out


def criterion_05_margins(sweep, ys=(3, 4, 5)) -> dict[int, dict[str, float]]:
    """Per channel count, how far each of criterion 05's statistical bounds is from failing.

    A margin is the measured value less its bound, so the bound holds at a
    margin of 0 where the criterion asks ">=" and above 0 where it asks ">".
    The means are over the seeds that all three schemes delivered, in us;
    the analytic margins are 25% less each scheme's relative gap between its
    simulated and matched analytic mean delays.
    """
    analytic = {(r.seed, r.scheme, r.y): r for r in sweep.analytic_rows}
    margins = {}
    for y in ys:
        totals = _totals_by_scheme(sweep, y)
        paired = sorted(set(totals["cmd"]) & set(totals["wsd"]) & set(totals["legacy"]))
        mean = {scheme: float(np.mean([totals[scheme][s] for s in paired]))
                for scheme in ("cmd", "wsd", "legacy")}
        residual = float(np.mean([row.residual_wait_us for row in sweep.table.rows
                                  if row.scheme == "legacy" and row.y == y
                                  and row.seed in paired]))
        margins[y] = {
            "paired seeds - 20": len(paired) - 20,
            "wsd - cmd": mean["wsd"] - mean["cmd"],
            "legacy - cmd - residual": mean["legacy"] - mean["cmd"] - residual,
            "legacy - wsd - residual": mean["legacy"] - mean["wsd"] - residual,
        }
        for scheme in ("cmd", "wsd", "legacy"):
            delivered = sorted(totals[scheme])
            sim = float(np.mean([totals[scheme][s] for s in delivered]))
            ana = float(np.mean([analytic[(s, scheme, y)].t_d_matched_us for s in delivered]))
            margins[y][f"25% - {scheme} analytic gap"] = 0.25 - abs(sim - ana) / ana
    return margins


def test_criterion_05_delay_ordering_and_analytic_overlay(delay_sweep):
    cfg = default_config()
    t_sw = float(cfg.scheme.switching_delay_us)
    analytic = {(r.seed, r.scheme, r.y): r for r in delay_sweep.analytic_rows}
    margins = criterion_05_margins(delay_sweep)
    with criterion(5, "cmd < wsd < legacy ordering and 25% analytic agreement"):
        for y, m in margins.items():
            print(f"  y={y} margins: " + ", ".join(f"{name} {v:.4g}" for name, v in m.items()))
            assert m["paired seeds - 20"] >= 0, (y, m)
            assert m["wsd - cmd"] > 0, (y, m)
            assert m["legacy - cmd - residual"] >= 0, (y, m)
            assert m["legacy - wsd - residual"] >= 0, (y, m)
            for scheme in ("cmd", "wsd", "legacy"):
                assert m[f"25% - {scheme} analytic gap"] > 0, (y, m)

            # closed-form overlay: the sequential-vs-parallel gap is exact
            for seed in SEEDS:
                row_cmd = analytic[(seed, "cmd", y)]
                row_wsd = analytic[(seed, "wsd", y)]
                gap = row_wsd.t_d_us - row_cmd.t_d_us
                expected = (y - 2) * (row_cmd.e_d_us + t_sw)
                assert math.isclose(gap, expected, rel_tol=0.0, abs_tol=1e-9), (seed, y)


# ---------------------------------------------------------------------------
# 6. Closed-form point values for the two coordinated schemes
# ---------------------------------------------------------------------------


def test_criterion_06_scheme_delay_point_values():
    with criterion(6, "2 ms hops: cmd(3) = 6 ms, wsd(3) = 10 ms, y=1 = 2 ms"):
        assert total_dissemination_delay("cmd", 3, 2000.0, 2000.0) == 6000.0
        assert total_dissemination_delay("wsd", 3, 2000.0, 2000.0) == 10000.0
        assert total_dissemination_delay("cmd", 1, 2000.0, 2000.0) == 2000.0
        assert total_dissemination_delay("wsd", 1, 2000.0, 2000.0) == 2000.0


# ---------------------------------------------------------------------------
# 7. Frame airtime point value
# ---------------------------------------------------------------------------


def test_criterion_07_frame_airtime_point_value():
    with criterion(7, "200 B at 3 Mb/s airs in 533.33 us (+/- 0.01 us)"):
        e_t = frame_airtime(MacParams(payload_s=200, data_rate=3e6))
        assert abs(e_t - 533.33) <= 0.01, e_t


# ---------------------------------------------------------------------------
# 8. Broadcast-window sizing: saturation plateau at the computed interval
# ---------------------------------------------------------------------------


def test_criterion_08_broadcast_window_saturates_at_computed_interval():
    mac = MacParams()
    queue = QueueParams()
    traffic = TrafficParams()
    radio_default = RadioParams()
    radio_literal = dataclasses.replace(radio_default, far_branch_uses_near_exponent=True)
    # window sized for the expected sensing neighbourhood at the design point
    n_nodes, t_slot, v_default = broadcast_window(traffic, radio_default, mac)
    v_literal = optimal_decision_interval(traffic, radio_literal, t_slot)
    with criterion(8, "delivery plateaus at >= V and drops strictly below it"):
        multiples = (0.5, 1.0, 1.5, 2.0)
        swept = interval_sweep(
            mac, queue, n_nodes, multiples=multiples, seeds=range(30), v_us=v_default
        )
        points = dict(zip(multiples, swept))
        base = points[1.0]
        for m in (1.5, 2.0):
            assert abs(points[m].ptr - base.ptr) < 0.02, (m, points[m].ptr, base.ptr)
            assert abs(points[m].prr - base.prr) < 0.02, (m, points[m].prr, base.prr)
        assert points[0.5].ptr < base.ptr, (points[0.5].ptr, base.ptr)
        assert points[0.5].prr < base.prr, (points[0.5].prr, base.prr)
        reference_us = 8380.0
        branch_gaps = {
            "steep-far-branch": abs(v_default - reference_us) / reference_us,
            "shallow-far-branch": abs(v_literal - reference_us) / reference_us,
        }
        for name, gap in branch_gaps.items():
            if gap <= 0.05:
                assert min(v_default, v_literal) == pytest.approx(reference_us, rel=0.05)
        print(f"  V(steep far branch) = {v_default:.1f} us, "
              f"V(shallow far branch) = {v_literal:.1f} us")
        print(f"  8.38 ms reference: gaps {branch_gaps['steep-far-branch']:.1%} / "
              f"{branch_gaps['shallow-far-branch']:.1%} -> "
              f"{'reproduced' if min(branch_gaps.values()) <= 0.05 else 'not reproduced'}")
        print(f"  ptr: 0.5V={points[0.5].ptr:.4f} V={base.ptr:.4f} "
              f"1.5V={points[1.5].ptr:.4f} 2V={points[2.0].ptr:.4f}")


# ---------------------------------------------------------------------------
# 9. Flooding raises per-channel delay but extends reach
# ---------------------------------------------------------------------------


def _pooled_channel_means(rows) -> dict[int, float]:
    acc: dict[int, list[float]] = {}
    for row in rows:
        for ch, mean_delay in row.per_channel_delays.items():
            acc.setdefault(ch, []).append(mean_delay)
    return {ch: float(np.mean(delays)) for ch, delays in acc.items()}


def test_criterion_09_flooding_tradeoff(delay_sweep, flooding_sweep):
    plain_rows = [r for r in delay_sweep.table.rows if r.scheme == "cmd" and r.y == 3]
    flooded_rows = list(flooding_sweep.table.rows)
    assert all(r.flooding == "none" for r in plain_rows)
    assert all(r.flooding == "shbf" for r in flooded_rows)
    with criterion(9, "flooding delays every channel but extends the reach CDF"):
        plain_means = _pooled_channel_means(plain_rows)
        flooded_means = _pooled_channel_means(flooded_rows)
        for ch in sorted(set(plain_means) | set(flooded_means)):
            assert ch in plain_means and ch in flooded_means, f"channel {ch} unreached"
            assert flooded_means[ch] > plain_means[ch], (
                ch, flooded_means[ch], plain_means[ch]
            )
            print(f"  ch {ch}: mean delay {plain_means[ch]/1e3:.2f} -> "
                  f"{flooded_means[ch]/1e3:.2f} ms with flooding")
        plain_reach = [s for r in plain_rows for s in r.reachability_samples]
        flooded_reach = [s for r in flooded_rows for s in r.reachability_samples]
        band = [round(0.10 + 0.02 * i, 2) for i in range(15)]  # 0.10 .. 0.38
        plain_cdf = reachability_cdf(plain_reach, band)
        flooded_cdf = reachability_cdf(flooded_reach, band)
        for x, f_plain, f_flooded in zip(band, plain_cdf, flooded_cdf):
            assert f_flooded < f_plain, (x, f_flooded, f_plain)
        upper = [round(0.70 + 0.05 * i, 2) for i in range(7)]  # 0.70 .. 1.00
        plain_hi = reachability_cdf(plain_reach, upper)
        flooded_hi = reachability_cdf(flooded_reach, upper)
        for x, f_plain, f_flooded in zip(upper, plain_hi, flooded_hi):
            assert f_flooded >= f_plain, (x, f_flooded, f_plain)
        print(f"  reach mean {np.mean(plain_reach):.3f} -> {np.mean(flooded_reach):.3f}; "
              f"CDF strictly below on [0.10, 0.38], not below on [0.70, 1.00]")


# ---------------------------------------------------------------------------
# 10. Determinism: identical configuration and seed, identical bytes
# ---------------------------------------------------------------------------


def test_criterion_10_metrics_are_byte_identical(tmp_path):
    with criterion(10, "same config + seed produce byte-identical metrics.csv"):
        paths = []
        for name in ("first", "second"):
            result = run_experiment(default_config())
            path = tmp_path / name / "metrics.csv"
            emit_csv(path, MetricsTable(rows=[result.metrics]).to_csv())
            paths.append(path)
        first, second = (p.read_bytes() for p in paths)
        assert first == second
        assert first.decode("utf-8").splitlines()[0] == METRICS_HEADER


#: sha256 of the golden grid's metrics and analytical CSVs; any change to a
#: simulated number changes it, so a change that moves it must say why
GOLDEN_SHA256 = "41e69128ba31c7949ead7128d382c06c63a7fd03ee366e52f390c4d600357693"


def test_golden_grid_bytes_are_pinned():
    sweep = run_sweep(
        default_config(), seeds=range(1, 7), schemes=("cmd", "wsd", "legacy"),
        ys=(3, 5), floodings=("none", "shbf"),
    )
    text = sweep.table.to_csv() + analytical_csv(sweep.analytic_rows)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256


#: the same digest over the channel counts the golden grid leaves out: y = 1,
#: where cmd relays nothing and wsd visits nothing, and y = 6, wsd's longest
#: chain of visits
EDGE_Y_SHA256 = "f372fc723a55017722d045fc3b5c6958d13cc41addbaa3d758db8f93ff086c2e"


def test_edge_channel_count_bytes_are_pinned():
    sweep = run_sweep(
        default_config(), seeds=range(1, 7), schemes=("cmd", "wsd", "legacy"),
        ys=(1, 6), floodings=("none", "shbf"),
    )
    text = sweep.table.to_csv() + analytical_csv(sweep.analytic_rows)
    assert hashlib.sha256(text.encode()).hexdigest() == EDGE_Y_SHA256


#: sha256 of `interval_sweep` at criterion 08's sizing (13 stations, V from
#: the design-point slot mix), multiples 0.5, 1 and 2, arena seeds 0-19:
#: one `window_us,ptr,prr,attempted,succeeded` line per multiple
INTERVAL_SWEEP_SHA256 = "c7b8d4160c854b4b1bf69f78ddcd2be0010e12876f875cee81a79e1d69cdbba0"


def test_interval_sweep_bytes_are_pinned():
    mac, queue, traffic, radio = MacParams(), QueueParams(), TrafficParams(), RadioParams()
    n_nodes, _t_slot, v_us = broadcast_window(traffic, radio, mac)
    assert n_nodes == 13
    points = interval_sweep(mac, queue, n_nodes, multiples=(0.5, 1, 2), seeds=range(20), v_us=v_us)
    text = "".join(f"{p.window_us},{p.ptr!r},{p.prr!r},{p.attempted},{p.succeeded}\n"
                   for p in points)
    assert hashlib.sha256(text.encode()).hexdigest() == INTERVAL_SWEEP_SHA256
