"""bench/record.py: what a BENCH file keeps per metric and per tree."""
import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "record", Path(__file__).resolve().parent.parent / "bench" / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


def _result(throughput, rss):
    return {"metrics": {"throughput_per_min": {"value": throughput, "unit": "1/min"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"},
                        "core.norm2.calls": {"value": 6.0, "unit": "count"}}}


def test_summary_counts_wins_in_the_declared_direction():
    pairs = [{"parent": _result(10.0, 50.0), "change": _result(12.0, 49.0)},
             {"parent": _result(11.0, 50.0), "change": _result(11.0, 51.0)},  # a tie
             {"parent": _result(9.0, 50.0), "change": _result(13.0, 50.0)}]
    s = record.summarize(pairs, {"throughput_per_min": "higher", "peak_rss_mb": "lower"})
    assert (s["throughput_per_min"]["change_wins"], s["throughput_per_min"]["pairs"]) == (2, 3)
    assert s["peak_rss_mb"]["change_wins"] == 1
    assert s["throughput_per_min"]["parent"] == {"median": 10.0, "q1": 9.5, "q3": 10.5}
    assert s["throughput_per_min"]["unit"] == "1/min"
    assert "change_wins" not in s["core.norm2.calls"]  # no declared direction


def test_spread_of_one_run():
    assert record.spread([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0}


def test_src_digest_follows_the_sources(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    module = tmp_path / "src" / "pkg" / "m.py"
    module.write_text("x = 1\n")
    first = record.src_digest(tmp_path)
    (tmp_path / "notes.txt").write_text("not a source")
    assert record.src_digest(tmp_path) == first
    module.write_text("x = 2\n")
    assert record.src_digest(tmp_path) != first
