"""The summarizing step of ``scripts/ab.py``, on synthetic runs."""

from __future__ import annotations

import importlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

END_TO_END = [
    {"name": "latency_p50_ms", "better": "lower", "bound": 0.2},
    {"name": "throughput_ups", "better": "higher", "bound": 0.2},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.05},
    {"name": "ok_share", "better": "higher", "bound": 0.01},
]


@pytest.fixture()
def ab(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(SCRIPTS))
    return importlib.import_module("ab")


def runs_of(workload: str, parent: dict[str, list[float]], change: dict[str, list[float]]) -> list[dict]:
    """One run per side and pair, in the order ``ab.py`` makes them, from per-metric value lists."""
    runs = []
    for k in range(len(parent["latency_p50_ms"])):
        sides = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in sides:
            values = parent if side == "parent" else change
            runs.append({
                "workload": workload, "pair": k + 1, "side": side, "correct": True,
                "metrics": {name: series[k] for name, series in values.items()},
                "utterances": int(values["throughput_ups"][k] * 20),
            })
    return runs


def test_summary_gives_spreads_wins_and_verdicts(ab):
    parent = {
        "latency_p50_ms": [0.47, 0.48, 0.46, 0.47, 0.49, 0.47, 0.48, 0.46, 0.47, 0.48],
        # throughput spreads wider than its bound on the parent
        "throughput_ups": [1000, 2000, 1500, 1000, 2000, 1500, 1000, 2000, 1500, 1800],
        "peak_rss_mb": [20.0] * 10,
        "ok_share": [1.0] * 10,
    }
    change = {
        # nine wins, one loss
        "latency_p50_ms": [0.41, 0.42, 0.40, 0.41, 0.50, 0.41, 0.42, 0.40, 0.41, 0.42],
        "throughput_ups": [1100, 1900, 1500, 1000, 2100, 1400, 1000, 2000, 1600, 1800],
        "peak_rss_mb": [21.5] * 10,  # +7.5%, over the 5% bound
        "ok_share": [1.0] * 10,
    }
    summary = ab.summarize(runs_of("demo-pipeline", parent, change), END_TO_END)
    table = summary["demo-pipeline"]
    assert list(table) == [m["name"] for m in END_TO_END]

    p50 = table["latency_p50_ms"]
    q1, _, q3 = statistics.quantiles(parent["latency_p50_ms"], n=4)
    assert p50["parent"] == {"median": 0.47, "q1": q1, "q3": q3}
    assert p50["change"]["median"] == 0.41
    assert (p50["wins"], p50["pairs"], p50["verdict"]) == (9, 10, "better")
    assert p50["change_vs_parent"] == pytest.approx(0.41 / 0.47 - 1)

    assert table["throughput_ups"]["wins"] == 3  # ties count for neither side
    assert table["throughput_ups"]["verdict"] == "unresolved"
    rss = table["peak_rss_mb"]
    assert (rss["wins"], rss["verdict"]) == (0, "worse")
    assert rss["utterances"] == {"parent": 30000, "change": 31000}
    assert table["ok_share"]["verdict"] == "within bound"


def test_rss_at_equal_utterances_takes_out_the_utterance_slope(ab):
    # RSS = 19 + 1e-4 * utterances, plus 0.2 on the change side; the change times more
    parent = {"throughput_ups": [1700.0, 1750.0, 1800.0, 1720.0, 1790.0, 1760.0]}
    change = {"throughput_ups": [2100.0, 2180.0, 2150.0, 2230.0, 2120.0, 2200.0]}
    for side, extra in ((parent, 0.0), (change, 0.2)):
        side["peak_rss_mb"] = [19 + 1e-4 * (t * 20) + extra for t in side["throughput_ups"]]
        side["latency_p50_ms"] = [1.0] * 6
        side["ok_share"] = [1.0] * 6
    rss = ab.summarize(runs_of("synth-cag", parent, change), END_TO_END)["synth-cag"]["peak_rss_mb"]
    assert rss["at_equal_utterances"] == pytest.approx(0.2, abs=1e-9)
    # the medians also differ by the extra utterances: 0.2 + 1e-4 * 8200
    assert rss["change"]["median"] - rss["parent"]["median"] == pytest.approx(1.02)


def test_rss_at_equal_utterances_is_unknown_without_spread(ab):
    one = {"latency_p50_ms": [0.5], "throughput_ups": [10.0], "peak_rss_mb": [20.0], "ok_share": [1.0]}
    table = ab.summarize(runs_of("demo-latency", one, one), END_TO_END)["demo-latency"]
    assert table["peak_rss_mb"]["at_equal_utterances"] is None


def test_eight_wins_in_ten_claim_no_gain(ab):
    parent = {"latency_p50_ms": [1.0] * 10, "throughput_ups": [100.0] * 10,
              "peak_rss_mb": [20.0] * 10, "ok_share": [1.0] * 10}
    change = dict(parent, latency_p50_ms=[0.8] * 8 + [1.1, 1.1])
    table = ab.summarize(runs_of("synth-cag", parent, change), END_TO_END)["synth-cag"]
    assert table["latency_p50_ms"]["wins"] == 8
    assert table["latency_p50_ms"]["verdict"] == "within bound"


def test_a_single_pair_has_its_value_as_every_quartile(ab):
    one = {"latency_p50_ms": [0.5], "throughput_ups": [10.0], "peak_rss_mb": [20.0], "ok_share": [1.0]}
    table = ab.summarize(runs_of("demo-latency", one, one), END_TO_END)["demo-latency"]
    assert table["latency_p50_ms"]["parent"] == {"median": 0.5, "q1": 0.5, "q3": 0.5}
    assert (table["latency_p50_ms"]["wins"], table["latency_p50_ms"]["verdict"]) == (0, "within bound")


def test_layer_summary_gives_both_traced_values_and_the_change(ab):
    traced = [
        {"workload": "synth-cag", "side": "parent", "correct": True,
         "metrics": {"classify.classify.ms": 0.2, "llm.prompt_tokens.agent_step": 0.0, "old.ms": 1.0}},
        {"workload": "synth-cag", "side": "change", "correct": True,
         "metrics": {"classify.classify.ms": 0.1, "llm.prompt_tokens.agent_step": 0.0, "new.ms": 1.0}},
        {"workload": "synth-cag", "side": "change", "correct": True,
         "metrics": {"classify.classify.ms": 0.09, "llm.prompt_tokens.agent_step": 0.0, "new.ms": 1.0}},
        {"workload": "synth-cag", "side": "parent", "correct": True,
         "metrics": {"classify.classify.ms": 0.21, "llm.prompt_tokens.agent_step": 0.0, "old.ms": 1.0}},
        {"workload": "synth-cag", "side": "parent", "correct": True,
         "metrics": {"classify.classify.ms": 0.19, "llm.prompt_tokens.agent_step": 0.0, "old.ms": 1.0}},
        # an outlier: a mean of the change's runs would read as a slowdown
        {"workload": "synth-cag", "side": "change", "correct": True,
         "metrics": {"classify.classify.ms": 0.9, "llm.prompt_tokens.agent_step": 0.0, "new.ms": 1.0}},
        {"workload": "demo-pipeline", "side": "parent", "correct": True,
         "metrics": {"classify.classify.ms": 0.05}},
        {"workload": "demo-pipeline", "side": "change", "correct": True,
         "metrics": {"classify.classify.ms": 0.06}},
    ]
    layers = ab.summarize_layers(traced)
    assert list(layers) == ["synth-cag", "demo-pipeline"]
    cag = layers["synth-cag"]
    # a metric that only one side reports is left out
    assert list(cag) == ["classify.classify.ms", "llm.prompt_tokens.agent_step"]
    # each side's median stands for it
    assert cag["classify.classify.ms"] == {
        "parent": 0.2, "change": 0.1, "change_vs_parent": -0.5,
        "runs": {"parent": [0.2, 0.21, 0.19], "change": [0.1, 0.09, 0.9]},
    }
    # no relative change from a parent value of 0
    assert cag["llm.prompt_tokens.agent_step"] == {
        "parent": 0.0, "change": 0.0, "change_vs_parent": None,
        "runs": {"parent": [0.0] * 3, "change": [0.0] * 3},
    }
    row = layers["demo-pipeline"]["classify.classify.ms"]
    assert (row["parent"], row["change"]) == (0.05, 0.06)
    assert row["change_vs_parent"] == pytest.approx(0.2)


def test_a_run_keeps_its_raw_wall_p50_and_the_summary_prints_both_medians(ab, monkeypatch, capsys):
    stdout = "\n".join([
        "# 41234 utterances in 12 passes: wall p50 0.2140 ms, machine speed 0.812 of reference",
        json.dumps({"correct": True, "metrics": {"latency_p50_ms": {"value": 0.25, "unit": "ms"}}}),
    ])

    def fake_run(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(ab.subprocess, "run", fake_run)
    run = ab.run_side(Path("."), "synth-cag", 2, 1.0)
    assert run == {
        "correct": True, "metrics": {"latency_p50_ms": 0.25},
        "utterances": 41234, "wall_p50_ms": 0.214, "machine_speed": 0.812,
    }

    one = {"latency_p50_ms": [0.5, 0.6], "throughput_ups": [10.0] * 2,
           "peak_rss_mb": [20.0] * 2, "ok_share": [1.0] * 2}
    runs = runs_of("synth-single", one, one)
    # pair 1 runs the parent first, pair 2 the change
    for r, wall in zip(runs, [0.40, 0.46, 0.42, 0.44]):
        r["wall_p50_ms"] = wall
    summary = ab.summarize(runs, END_TO_END)
    walls = summary["synth-single"]["latency_p50_ms"]["wall_p50_ms"]
    assert walls == {"parent": pytest.approx(0.42), "change": pytest.approx(0.44)}
    ab.print_summary(summary)
    assert "(raw wall p50 0.4200 -> 0.4400 ms)" in capsys.readouterr().out

    # a run without the timed-loop line knows no wall p50
    del runs[0]["wall_p50_ms"]
    walls = ab.summarize(runs, END_TO_END)["synth-single"]["latency_p50_ms"]["wall_p50_ms"]
    assert walls == {"parent": None, "change": pytest.approx(0.44)}



@pytest.mark.parametrize(
    "names, bad",
    [
        (["synth-cag,demo-pipeline"], "synth-cag,demo-pipeline"),
        (["synth-cag", "demo-pipeline", "demo-pipline"], "demo-pipline"),
    ],
    ids=["comma-joined", "misspelt-after-valid-ones"],
)
def test_an_unknown_workload_is_a_usage_error_before_any_export(
    ab, monkeypatch, capsys, tmp_path, names, bad
):
    def export(rev: str, dest: Path) -> str:
        raise AssertionError(f"{rev} was exported")

    monkeypatch.setattr(ab, "export", export)
    with pytest.raises(SystemExit) as exited:
        ab.main(["HEAD~1", "--workloads", *names, "--out", str(tmp_path / "ab.json")])
    assert exited.value.code == 2
    benchmark = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    valid = ", ".join(w["name"] for w in benchmark["workloads"])
    message = f"error: --workloads: {bad!r} is not a workload of BENCHMARK.json ({valid})\n"
    assert capsys.readouterr().err.endswith(message)
