"""Tests of the benchmark itself: span arithmetic, the speed probes, the
digest gate, the negative controls and a q=2 smoke run of every workload.

    PYTHONPATH=src python3 -m pytest -q verdictbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
if str(ROOT / "src") not in sys.path:
    sys.path.append(str(ROOT / "src"))

import compare  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

from modinvar import ff_from_q, verify, verify_certificate  # noqa: E402


@pytest.fixture(scope="module")
def ref():
    return workloads.load_reference()


def test_self_time_on_nested_tree():
    # root [0,10] > a [1,4] > a1 [2,3];  root > b [5,9] > b1 [6,7], b2 [6.5,8]
    start = [0.0, 1.0, 2.0, 5.0, 6.0, 6.5]
    end = [10.0, 4.0, 3.0, 9.0, 7.0, 8.0]
    parent = [-1, 0, 1, 0, 3, 3]
    got = spans.self_times(start, end, parent)
    # b's two children overlap; the overlap is covered once
    assert got == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.0, 1.5])
    # order of the span lists does not matter
    perm = [5, 2, 0, 4, 1, 3]
    inv = {old: new for new, old in enumerate(perm)}
    got2 = spans.self_times([start[i] for i in perm], [end[i] for i in perm],
                            [inv[parent[i]] if parent[i] >= 0 else -1
                             for i in perm])
    assert got2 == pytest.approx([got[i] for i in perm])


def test_recorder_links_parents_and_counts(tmp_path):
    rec = spans.Recorder("t")

    def leaf(x):
        return [0] * x

    leaf_w = rec.wrap("leaf", leaf, lambda a, kw, r: {"n": len(r),
                                                      "key": a[0] % 2})
    outer = rec.wrap("outer", lambda: [leaf_w(1), leaf_w(2), leaf_w(3)])
    outer()
    agg = spans.by_name(rec)
    assert agg["outer"]["calls"] == 1 and agg["leaf"]["calls"] == 3
    assert agg["leaf"]["n"] == 6 and agg["leaf"]["distinct"] == 2
    assert list(rec.parent) == [-1, 0, 0, 0]
    total = agg["outer"]["self_s"] + agg["leaf"]["self_s"]
    assert total == pytest.approx(rec.end[0] - rec.start[0])
    assert agg["outer"]["total_s"] == rec.end[0] - rec.start[0]
    assert agg["leaf"]["total_s"] == pytest.approx(
        sum(rec.end[i] - rec.start[i] for i in (1, 2, 3)))
    rec.write(tmp_path / "t.spans")
    back = spans.load(tmp_path / "t.spans")
    assert back["spans"] == 4 and list(back["parent"]) == [-1, 0, 0, 0]
    assert [back["names"][i] for i in back["name"]] == ["outer"] + ["leaf"] * 3


def test_reference_seconds_arithmetic():
    # 10 s of wall and 9 s of CPU, 1 s of each in probes; the probes after
    # the start ran at twice and at two thirds the reference speed
    a = pace.Reading(100.0, 5.0, 0.5, 0.5, 3.0, 3)
    b = pace.Reading(110.0, 14.0, 1.5, 1.5, 3.0 + 2.0 + 2.0 / 3, 5)
    assert pace.factor(a, b) == pytest.approx(4.0 / 3)
    assert pace.net_wall(a, b) == pytest.approx(9.0)
    assert pace.wall_ref(a, b) == pytest.approx(12.0)
    assert pace.net_cpu(a, b) == pytest.approx(8.0)
    assert pace.cpu_ref(a, b) == pytest.approx(32.0 / 3)


def test_pacer_probes_on_its_timer():
    pacer = pace.Pacer(0.01)
    start = pacer.mark()
    end_at = start.wall + 0.2
    while pace.time.monotonic() < end_at:
        sum(range(1000))
    end = pacer.mark()
    pacer.stop()
    assert end.n - start.n >= 5        # timer probes plus the mark's own
    assert 0 < end.probe_wall - start.probe_wall < 0.2
    assert pace.net_wall(start, end) < end.wall - start.wall
    assert pace.wall_ref(start, end) > 0
    n = end.n
    pace.time.sleep(0.05)
    assert pacer.n == n                # stopped: no more probes


def _sample(report, caught=True):
    return {"digest": workloads.digest(report.to_json(include_volatile=False)),
            "not_pass": sum(it.status != "pass" for it in report.items),
            "control_caught": caught, "control": ""}


def test_digest_gate_rejects_tampered_report(ref):
    field = ff_from_q(2)
    report = verify.check_kernel(field, 24)
    expected = workloads.expected_digest(ref, "kernel-q4", True, 0)
    assert run.check(_sample(report), expected) == []
    report.items[3].detail += " "
    assert run.check(_sample(report), expected) == [
        "non-volatile report differs from the reference"]
    assert run.check(_sample(report, caught=False), expected)[-1] \
        .startswith("negative control uncaught")


@pytest.mark.parametrize("seed", [0, 7])
def test_sampled_reference_rebuilds_the_seeded_report(ref, seed):
    report = verify.check_products(ff_from_q(2), sample="10", seed=seed)
    assert workloads.digest(report.to_json(include_volatile=False)) == \
        workloads.expected_digest(ref, "products-q4-sample", True, seed)


def test_distinct_fit_blocks(ref):
    assert workloads.distinct_blocks(ref, "products-q3-all", False, 0) == \
        (1176, 145)
    assert workloads.distinct_blocks(ref, "products-q4-sample", False, 0) == \
        (300, 164)


def test_each_control_rejects_its_corruption():
    field = ff_from_q(2)
    cert = workloads.product_certificate(field)
    assert verify_certificate(field, cert)[0]
    assert not verify_certificate(field,
                                  workloads.flip_cofactor(field, cert))[0]
    four, five = workloads.reduced_bases(field)
    assert four != five
    assert verify.negative_controls(field, 24).overall == "pass"
    for name in workloads.NAMES:
        caught, detail = workloads.run_control(name, True, field)
        assert caught, detail


def test_benchmark_json_names_every_metric():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER


def test_compare_refuses_mixed_backends(tmp_path):
    metrics = {m: 1.0 for m in run.END_TO_END}
    for side, backend in (("a", "python"), ("b", "cython")):
        (tmp_path / side).mkdir()
        rec = {"workload": "kernel-q4", "trace": 0, "env": {"backend": backend},
               "end_to_end": metrics, "samples": {m: [1.0] for m in metrics},
               "attempted": 1, "failed": 0}
        (tmp_path / side / "r.json").write_text(json.dumps(rec))
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "a")]) == 0
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 2


def _smoke(name, trace):
    res = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace),
         "--smoke"], capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_run(name):
    out = _smoke(name, 0)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert set(out["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_smoke_traced_run():
    out = _smoke("kernel-q4", 1)
    assert out["correct"]
    assert set(out["metrics"]) == set(run.PER_LAYER)
    assert out["metrics"]["action.invariant_dimension.calls"]["value"] == 25
