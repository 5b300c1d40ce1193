"""Tests of the benchmark itself: labels, ranking rules, span arithmetic.

    python3 -m pytest -q perfbench
"""

import json
import os
import random
import statistics
import sys
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


def _quad_transform(g, a, z, tol=1e-13):
    """Adaptive Gauss-Legendre value of int_0^a e^{izt} g(t) dt."""
    a = float(a)
    coeffs = np.array([complex(float(re), float(im)) for re, im in g])
    nodes, weights = np.polynomial.legendre.leggauss(24)
    prev = None
    for panels in (4, 8, 16, 32, 64):
        edges = np.linspace(0.0, a, panels + 1)
        total = 0j
        for lo, hi in zip(edges[:-1], edges[1:]):
            t = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
            vals = np.polyval(coeffs[::-1], t)
            total += np.sum(0.5 * (hi - lo) * weights * np.exp(1j * z * t) * vals)
        if prev is not None and abs(total - prev) <= tol * (1 + abs(total)):
            break
        prev = total
    return complex(total)


def _scale(g, a):
    """Size of the integrand, to judge |F(z0)| against."""
    return sum(abs(complex(float(re), float(im))) * float(a) ** k for k, (re, im) in enumerate(g))


def _schedule_pairs(name, seed=7):
    rng = random.Random(f"{name}:{seed}")
    return [(slot, workloads.make_pair(rng, slot)) for slot in workloads.WORKLOADS[name].slots]


def _sym(p):
    s = sp.Symbol("s")
    return sp.Poly([sp.Rational(str(re)) + sp.I * sp.Rational(str(im)) for re, im in reversed(p)]
                   or [0], s, domain="QQ_I")


# -- generator labels --------------------------------------------------------

def test_roadmap_pair_is_a_shared_zero_instance():
    q = gen.q_real
    psi1 = [q(1), q(-3), q(1)]
    psi2 = [q(-5), q(7), q(3), q(-1)]
    pair = gen.Pair(psi1, psi2, Fraction(1), gen.SHARED_ZERO, s0=Fraction(1))
    assert gen.check_label(pair)
    g1, g2 = gen.densities_g(psi1, psi2, 1)
    assert abs(_quad_transform(g1, 1, 1j)) < 1e-12
    assert abs(_quad_transform(g2, 1, 1j)) < 1e-12


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_schedule_labels_hold(name):
    for slot, pair in _schedule_pairs(name):
        assert pair.label == slot.label
        assert gen.check_label(pair), slot
        assert len(pair.psi1) == slot.deg1 + 1
        g1, g2 = gen.densities_g(pair.psi1, pair.psi2, pair.a)
        if pair.label == gen.SHARED_ZERO:
            for g in (g1, g2):
                assert abs(_quad_transform(g, pair.a, pair.z0)) <= 1e-10 * _scale(g, pair.a)
        elif pair.label == gen.SCALED_COINCIDENT:
            for z in (0.7 + 0.2j, -3.1 - 1.0j):
                f1, f21 = _quad_transform(g1, pair.a, z), _quad_transform(g2, pair.a, z)
                assert abs(f21 - float(pair.c) * f1) <= 1e-10 * _scale(g2, pair.a)


def test_generic_certificate_agrees_with_sympy_gcd():
    for name in ("decide-highdeg", "kernel-operator"):
        for _, pair in _schedule_pairs(name, seed=3):
            if pair.label != gen.GENERIC:
                continue
            g1, g2 = gen.densities_g(pair.psi1, pair.psi2, pair.a)
            gs = [_sym(gen.g_series(g, x)) for g in (g1, g2) for x in (pair.a, 0)]
            h = gs[0]
            for g in gs[1:]:
                h = h.gcd(g)
            assert h.degree() == 0
            assert not (gs[2] * gs[1] - gs[0] * gs[3]).is_zero


def test_zeros_wide_pairs_are_endpoint_regular():
    for _, pair in _schedule_pairs("zeros-wide", seed=11):
        psi1, psi2 = _sym(pair.psi1), _sym(pair.psi2)
        a = sp.Rational(str(pair.a))
        for p in (psi1, psi2):
            assert p.eval(0) != 0 and p.eval(a) != 0


def test_closed_form_parts_agree_with_quadrature():
    for _, pair in _schedule_pairs("zeros-wide", seed=12)[::3]:
        for g in gen.densities_g(pair.psi1, pair.psi2, pair.a):
            z = np.array([30.5 - 4.0j, -12.0 + 5.5j, 3.0 + 0.5j])
            osc, plain = gen.closed_form_parts(g, pair.a)(z)
            for k in range(len(z)):
                assert abs(osc[k] + plain[k] - _quad_transform(g, pair.a, z[k])) <= (
                    1e-9 * (abs(osc[k]) + abs(plain[k])))


def test_clear_rect_edges_keep_away_from_zeros():
    worst = []
    for slot, pair in _schedule_pairs("zeros-wide", seed=12):
        x0, x1, y0, y1 = gen.clear_rect(pair, slot.rect[1], slot.rect[3])
        w, h = slot.rect[1], slot.rect[3]
        assert abs(x0 + w) <= np.pi + 1e-3 and abs(x1 - w) <= np.pi + 1e-3  # edges round to 3 places
        assert abs(y0 + h) <= 1 and abs(y1 - h) <= 1
        edge = np.concatenate([np.linspace(x0, x1, 4000) + 1j * y for y in (y0, y1)]
                              + [x + 1j * np.linspace(y0, y1, 1000) for x in (x0, x1)])
        for g in gen.densities_g(pair.psi1, pair.psi2, pair.a):
            worst.append(float(gen.clearance(gen.closed_form_parts(g, pair.a), edge)))
    assert min(worst) > 0.05, worst


def test_timed_workloads_have_only_generic_pairs():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        timed = [w["name"] for w in json.load(fh)["workloads"]]
    assert sorted(timed + ["decide-defects", "zeros-defects"]) == sorted(workloads.WORKLOADS)
    for name in timed:
        assert {s.label for s in workloads.WORKLOADS[name].slots} == {gen.GENERIC}


def test_shared_zero_generator_rejects_forced_coincidence():
    with pytest.raises(ValueError):
        gen.shared_zero_pair(random.Random(1), 2, 2, 6, False, Fraction(1), Fraction(1))


def test_same_seed_same_files(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    workloads.write_problems("kernel-operator", 5, 1, str(a))
    workloads.write_problems("kernel-operator", 5, 1, str(b))
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b)) and "manifest.json" in names
    for n in names:
        assert (a / n).read_bytes() == (b / n).read_bytes()


# -- ranking rules -------------------------------------------------------------

def _records(times, classes):
    return [{"elapsed_s": t, "class": c} for t, c in zip(times, classes)]


def test_tail_is_highest_percentile_with_ten_beyond():
    values = [float(v) for v in range(1, 41)]
    pct, v = stats.tail(values)
    assert (pct, v) == (75.0, 30.0)
    pct, v = stats.tail(values[:20])
    assert (pct, v) == (50.0, 10.0)


def test_failures_rank_slowest():
    budget = 20.0
    times = [0.5 + 0.1 * i for i in range(30)]
    classes = [checks.SOLVED] * 30
    classes[0] = checks.FAILED   # the fastest problem failed
    classes[1] = checks.WRONG
    s = stats.summarize(_records(times, classes), budget)
    ranked = sorted(stats.ranking_times(_records(times, classes), budget))
    assert ranked[-2:] == [budget + 0.5, budget + 0.6]
    assert s["problem_s_p50"] == pytest.approx(statistics.median(times[2:] + [99, 99]))
    assert s["failed_frac"] == pytest.approx(1 / 30)
    assert s["wrong_frac"] == pytest.approx(1 / 30)
    assert s["solved_per_s"] == pytest.approx(28 / sum(times))


def test_speed_scale_multiplies_every_time():
    times = [0.2 * i for i in range(1, 31)]
    classes = [checks.SOLVED] * 28 + [checks.FAILED, checks.WRONG]
    one = stats.summarize(_records(times, classes), 20.0)
    two = stats.summarize(_records(times, classes), 20.0, [2.0] * 30)
    assert two["problem_s_p50"] == pytest.approx(2 * one["problem_s_p50"])
    assert two["problem_s_tail"] == pytest.approx(2 * one["problem_s_tail"])
    half = stats.ranking_times(_records(times, classes), 20.0, [0.5] * 30)
    assert max(half[:28]) < min(half[28:])
    assert half[28] == pytest.approx(20.0 + 0.5 * times[28])
    doubled = stats.ranking_times(_records(times, classes), 20.0, [2.0] * 30)
    assert max(doubled[:28]) < min(doubled[28:])
    assert two["solved_per_s"] == pytest.approx(one["solved_per_s"] / 2)
    assert two["failed_frac"] == one["failed_frac"]


def test_fixing_a_failure_never_reads_as_slowdown():
    rng = random.Random(4)
    for _ in range(200):
        times = [rng.uniform(0.1, 5.0) for _ in range(30)]
        classes = [rng.choice([checks.SOLVED] * 4 + [checks.FAILED, checks.WRONG])
                   for _ in times]
        before = stats.summarize(_records(times, classes), 20.0)
        bad = [i for i, c in enumerate(classes) if c != checks.SOLVED]
        if not bad:
            continue
        classes[rng.choice(bad)] = checks.SOLVED
        after = stats.summarize(_records(times, classes), 20.0)
        assert after["problem_s_p50"] <= before["problem_s_p50"]
        assert after["problem_s_tail"] <= before["problem_s_tail"]


# -- span arithmetic -------------------------------------------------------------

def _span(name, t0, t1, parent, work=0, err=False):
    return [name, t0, t1, parent, 0, work, err]


def test_self_times_on_hand_built_tree():
    tree = [
        _span("cli.run", 0.0, 10.0, -1),                      # 0
        _span("zeros.locate_zeros", 1.0, 5.0, 0, work=3),     # 1
        _span("transform.eval_many", 2.0, 3.0, 1, work=100),  # 2
        _span("transform.eval_many", 3.5, 4.0, 1, work=50),   # 3
        _span("zeros.locate_zeros", 6.0, 7.0, 0, err=True),   # 4
        _span("transform.eval_many", 6.5, 6.75, 4, work=40),  # 5
        _span("transform.eval_many", 8.0, 8.5, 0, work=10),   # 6
    ]
    assert spans.self_times(tree) == pytest.approx([4.5, 2.5, 1.0, 0.5, 0.75, 0.25, 0.5])
    m = spans.layer_metrics(tree)
    assert m["cli.run_s"] == 10.0
    assert m["cli.self_s"] == pytest.approx(4.5)
    assert m["zeros.locate_s"] == pytest.approx(3.25)
    assert m["zeros.locate_calls"] == 2
    assert m["zeros.locate_errors"] == 1
    assert m["zeros.zeros_found"] == 3
    assert m["zeros.eval_points_per_zero"] == pytest.approx(190 / 3)
    assert m["transform.eval_s"] == pytest.approx(2.25)
    assert m["transform.eval_points"] == 200
    assert m["transform.points_per_s"] == pytest.approx(200 / 2.25)
    assert m["transform.layer_self_s"] == pytest.approx(2.25)
    assert m["kernel.build_s"] == 0.0


def test_self_time_counts_overlapping_children_once():
    tree = [_span("cli.run", 0.0, 4.0, -1),
            _span("symbol.decide", 1.0, 3.0, 0),
            _span("symbol.decide", 2.0, 3.5, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(1.5)


def test_tracer_records_nesting_and_errors():
    tr = spans.Tracer()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    inner_t = tr.wrap("exact.inner", inner)
    outer_t = tr.wrap("cli.outer", lambda x: inner_t(x) + inner_t(x), work=lambda a, r: r)
    tr.problem = 9
    assert outer_t(2) == 4
    with pytest.raises(ValueError):
        inner_t(-1)
    names = [(s[0], s[3], s[4], s[5], s[6]) for s in tr.spans]
    assert names == [("cli.outer", -1, 9, 4, False), ("exact.inner", 0, 9, 0, False),
                     ("exact.inner", 0, 9, 0, False), ("exact.inner", -1, 9, 0, True)]


# -- output checks ---------------------------------------------------------------

def test_classify_outcomes():
    entry = {"label": "generic"}
    spec = {"tasks": ["decide"]}
    ok = {"verdict": {"outcome": "NoCommonZeros"}}
    assert checks.classify(entry, spec, ok, 0, None)[0] == checks.SOLVED
    assert checks.classify(entry, spec, None, None, "over budget")[0] == checks.FAILED
    assert checks.classify(entry, spec, ok, 2, None)[0] == checks.FAILED
    assert checks.classify(entry, spec, ok, 3, None)[0] == checks.WRONG
    bad = {"verdict": {"outcome": "ZeroSetsCoincide"}}
    assert checks.classify(entry, spec, bad, 0, None)[0] == checks.WRONG
    shared = {"label": "shared-zero"}
    assert checks.classify(shared, spec, ok, 0, None)[0] == checks.WRONG
    other = {"verdict": {"outcome": "CommonZeros"}}
    assert checks.classify(shared, spec, other, 0, None)[0] == checks.SOLVED


def test_kernel_check_matches_package_and_catches_a_wrong_term():
    from bezoutiant.exact import Poly
    from bezoutiant.kernel import build_kernel, normalize_pair

    spec = {"a": "2", "psi1": ["1", {"re": "1/2", "im": "-1"}], "psi2": ["3", "0", "1"]}
    kern = build_kernel(normalize_pair(Poly.from_json(spec["psi1"]),
                                       Poly.from_json(spec["psi2"]), Fraction(2))).to_json()
    for x, t in ((Fraction(1, 3), Fraction(3, 2)), (Fraction(7, 4), Fraction(1, 2))):
        assert checks.reported_u(kern, x, t) == checks.sympy_u(spec, x, t)
        entry = {"u_point": [str(x), str(t)]}
        assert checks.kernel_problems(entry, spec, {"kernel": kern}) == []
    kern["u_lower"][0]["coeff"] = "12345"
    entry = {"u_point": ["1/3", "3/2"]}
    assert checks.kernel_problems(entry, spec, {"kernel": kern})
