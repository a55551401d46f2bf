"""The percentile helper, the profile bucketing, and compare's verdicts."""

import cProfile
import importlib.util
import pstats
import textwrap

import pytest

from bench import compare, stats, trace


def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.tail_percentile(22) == 50
    assert stats.tail_percentile(44) == 75
    assert stats.tail_percentile(1010) == 99
    assert stats.tail_percentile(999) == 95
    assert stats.tail_percentile(19) is None
    assert stats.tail_percentile(2133, cap=95) == 95


def _module(path, name, source):
    path.write_text(textwrap.dedent(source))
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bucketing_sums_to_profiled_total(tmp_path):
    (tmp_path / "pkg_a").mkdir()
    (tmp_path / "pkg_b").mkdir()
    producer = _module(tmp_path / "pkg_b" / "producer.py", "producer", """
        def squares(n):
            total = 0
            for i in range(n):
                total += sum(j * j for j in range(50))
                got = yield total          # resumed from pkg_a
                total += got
        """)
    driver = _module(tmp_path / "pkg_a" / "driver.py", "driver", """
        def drive(gen, n):
            acc = next(gen)
            for i in range(n - 1):
                acc = gen.send(len(sorted([i, acc, 3])))
            return acc
        """)

    def package(filename):
        for name in ("pkg_a", "pkg_b"):
            if name in filename:
                return name
        return ""

    resumes = 400
    profiler = cProfile.Profile()
    profiler.enable()
    driver.drive(producer.squares(resumes), resumes)
    profiler.disable()
    self_s, calls_in, total_s = trace.bucket_profile(
        pstats.Stats(profiler).stats, package)
    assert sum(self_s.values()) == pytest.approx(total_s, rel=1e-9)
    assert self_s["pkg_a"] > 0 and self_s["pkg_b"] > 0
    # Builtins (sum, sorted, send) were charged to their callers.
    assert set(self_s) <= {"pkg_a", "pkg_b", trace.OTHER}
    assert self_s.get(trace.OTHER, 0.0) < 0.05 * total_s
    # Every resume across the yield is a call into pkg_b from pkg_a.
    assert calls_in["pkg_b"] == pytest.approx(resumes)


def _metric(**extra):
    return dict({"unit": "1/s", "better": "higher", "bound": 0.1}, **extra)


def test_compare_verdicts():
    steady = [100.0 + i * 0.1 for i in range(10)]
    assert compare.verdict(_metric(), steady, [v * 0.8 for v in steady]) \
        == "regressed"
    assert compare.verdict(_metric(), steady, [v * 0.95 for v in steady]) \
        == "unchanged"
    assert compare.verdict(_metric(), steady, [v * 1.2 for v in steady]) \
        == "improved"
    # Nine pairs are one short of a claim.
    assert compare.verdict(
        _metric(), steady[:9], [v * 1.2 for v in steady[:9]]) == "unchanged"
    noisy = [60.0, 80.0, 100.0, 120.0, 140.0] * 2
    assert compare.verdict(_metric(), noisy, [v * 0.5 for v in noisy]) \
        == "unresolved"
    lower = _metric(better="lower", unit="share", bound_abs=0.002)
    del lower["bound"]
    assert compare.verdict(lower, [0.0] * 3, [0.001] * 3) == "unchanged"
    assert compare.verdict(lower, [0.0] * 3, [0.01] * 3) == "regressed"


def test_compare_refuses_quick_files(tmp_path):
    path = tmp_path / "quick.json"
    path.write_text('{"quick": true, "runs": []}')
    with pytest.raises(SystemExit, match="quick"):
        compare.load_runs(str(path))
