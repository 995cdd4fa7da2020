import argparse
import gc
import hashlib
import json
import shlex
from pathlib import Path

import pytest

from speiserlab import theorem1
from speiserlab.cli import build_parser, main
from speiserlab.graph_core import build_graph


def run_cli(argv, capsys=None):
    return main(argv)


def test_gen_octagonal(tmp_path):
    out = tmp_path / "psi.json"
    assert main(["gen", "octagonal", "--depth", "2", "-o", str(out)]) == 0
    g = build_graph(out.read_text())
    assert g.n_vertices > 0


def test_gen_and_dual_round(tmp_path):
    out = tmp_path / "psi.json"
    main(["gen", "octagonal", "--depth", "3", "-o", str(out)])
    d = tmp_path / "dual.json"
    assert main(["gen", "dual", "--graph", str(out), "-o", str(d)]) == 0
    gd = build_graph(d.read_text())
    assert gd.n_vertices > 0


def test_missing_graph_is_usage_error(tmp_path, capsys):
    code = main(["analyze", "vel", "--graph", str(tmp_path / "missing.json")])
    assert code == 2
    assert not (tmp_path / "missing.json").exists()


def test_unknown_flag_exits_2(capsys):
    assert main(["gen", "octagonal", "--bogus"]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    text = capsys.readouterr().out
    assert "theorem1" in text


def test_analyze_fatness_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = [
        "analyze",
        "fatness",
        "--disks",
        "0,0,1",
        "--seed",
        "9",
    ]
    main(argv + ["-o", str(a)])
    main(argv + ["-o", str(b)])
    assert a.read_bytes() == b.read_bytes()
    report = json.loads(a.read_text())
    assert report["seed"] == 9
    # 9 probes and 24 random centers, 8 radii each, less the pairs whose
    # disk contains the unit disk
    assert sorted(report) == ["pairs", "seed", "tau_hat"]
    assert 0 < report["pairs"] <= 33 * 8
    assert report["tau_hat"] >= 0.25 - 1e-12


def test_analyze_resistance(tmp_path):
    g = tmp_path / "g.json"
    main(["gen", "octagonal", "--depth", "2", "-o", str(g)])
    out = tmp_path / "res.json"
    code = main(
        ["analyze", "resistance", "--graph", str(g), "--n-max", "2", "-o", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["radii"] == [1, 2]


def test_analyze_nash_williams_stops_at_the_reliable_depth(tmp_path):
    # the octagonal patch of depth 2 is reliable to depth 4; its BFS goes on
    # to depth 10 with rim cuts that the truncation shrank
    from speiserlab.walk import nash_williams_sum

    g = tmp_path / "psi.json"
    main(["gen", "octagonal", "--depth", "2", "-o", str(g)])
    out = tmp_path / "nw.json"
    assert main(["analyze", "nash-williams", "--graph", str(g), "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["reliable_depth"] == 4
    assert data["cut_sizes"] == [3, 6, 12, 24]
    assert data["partial_sums"] == nash_williams_sum([3, 6, 12, 24])


def test_analyze_doyle(tmp_path):
    g = tmp_path / "psi.json"
    main(["gen", "octagonal", "--depth", "2", "-o", str(g)])
    out = tmp_path / "doyle.json"
    argv = ["analyze", "doyle", "--graph", str(g), "--n-max", "3", "--grid-depth", "4"]
    assert main(argv + ["-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["radii"] == [1, 2, 3] and data["cut_sizes"] == [6, 24, 60]
    assert data["flags"] == []
    assert all(r >= nw for r, nw in zip(data["resistance"], data["nash_williams"]))


def test_output_goes_to_stdout_without_o(capsys):
    assert main(["analyze", "fatness", "--disks", "0,0,1", "--seed", "9"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] == 9 and report["pairs"] > 0


def test_analyze_vel_bad_annuli_exits_2(tmp_path, capsys):
    g = tmp_path / "psi.json"
    main(["gen", "octagonal", "--depth", "1", "-o", str(g)])
    assert main(["analyze", "vel", "--graph", str(g), "--annuli", "1-2"]) == 2
    assert "bad annuli spec '1-2'" in capsys.readouterr().err


def test_theorem1_missing_config_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["theorem1", "--config", str(missing)]) == 2
    assert f"config file not found: {missing}" in capsys.readouterr().err


def test_analyze_resistance_around_a_nonzero_root(tmp_path):
    from speiserlab.graph_core import to_json
    from speiserlab.lattices import triangular_ball
    from speiserlab.walk import resistance_curve

    g = tmp_path / "hex.json"
    g.write_text(to_json(triangular_ball(6, 6)))
    out = tmp_path / "res.json"
    argv = ["analyze", "resistance", "--graph", str(g), "--root", "3", "--n-max", "3"]
    assert main(argv + ["-o", str(out)]) == 0
    data = json.loads(out.read_text())
    want = resistance_curve(triangular_ball(6, 6), 3, [1, 2, 3])
    assert data == {"radii": [1, 2, 3], "resistance": want.resistance}
    assert data["resistance"][1:] == pytest.approx([0.2222, 0.2586], abs=5e-5)


def test_ratio_trend_cli_unconverged_exits_3(tmp_path, monkeypatch, capsys):
    from speiserlab import packing

    monkeypatch.setattr(packing, "MAX_NEWTON_STEPS", 1)
    out = tmp_path / "trend.json"
    argv = ["analyze", "ratio-trend", "--family", "tri8", "--ns", "3,4"]
    assert main(argv + ["-o", str(out)]) == 3
    diag = json.loads(out.read_text())["diagnostics"]
    assert diag["sweeps"] == 1
    assert diag["angle_residual"] >= packing.ANGLE_TOL
    assert "solver failed" in capsys.readouterr().err


def test_ratio_trend_cli_cg_cap_exits_3(tmp_path, monkeypatch, capsys):
    from speiserlab import packing

    monkeypatch.setattr(packing, "MAX_CG_PER_UNKNOWN", 0)
    out = tmp_path / "trend.json"
    argv = ["analyze", "ratio-trend", "--family", "tri8", "--ns", "3,4"]
    assert main(argv + ["-o", str(out)]) == 3
    report = json.loads(out.read_text())
    assert report["error"] == "circle packing did not converge"
    assert report["diagnostics"]["sweeps"] == 0
    assert report["diagnostics"]["cg_iterations"] == 0
    assert report["diagnostics"]["angle_residual"] >= packing.ANGLE_TOL
    assert "solver failed" in capsys.readouterr().err


def test_gen_gamma_schedule_validation(capsys):
    assert main(["gen", "gamma", "--schedule", "4,6"]) == 2


def test_gen_gamma_rejects_depth_past_the_schedule(tmp_path, capsys):
    # gen gamma builds through build_gamma, so a depth the schedule does not
    # cover fails instead of writing a shallower graph
    out = tmp_path / "g.json"
    argv = ["gen", "gamma", "--depth", "3", "--schedule", "21,8103", "-o", str(out)]
    assert main(argv) == 2
    assert "exceeds schedule coverage" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("depth,schedule", [(1, (3, 5)), (2, (3, 5)), (3, (3, 5, 7))])
def test_gen_gamma_is_the_stretched_ball(tmp_path, depth, schedule):
    from speiserlab.graph_core import to_json
    from speiserlab.speiser import GrowthSchedule, speiser_ball, tree_replace

    out = tmp_path / "g.json"
    text = ",".join(map(str, schedule))
    assert main(["gen", "gamma", "--depth", str(depth), "--schedule", text, "-o", str(out)]) == 0
    expected = tree_replace(speiser_ball(depth), GrowthSchedule(schedule))
    assert out.read_text() == to_json(expected)


def test_theorem1_cli_deterministic(tmp_path):
    cfg = {
        "schedule": [3, 5],
        "growth_k_min": 2,
        "growth_k_max": 8,
        "upsilon_k_min": 2,
        "upsilon_k_max": 8,
        "resistance_radii": [1, 2, 3, 4],
        "vel_annuli": [[1, 2], [2, 4]],
        "ratio_ns": [2, 3, 4],
        "doyle_n_max": 8,
        "doyle_grid_depth": 8,
    }
    cfile = tmp_path / "cfg.json"
    cfile.write_text(json.dumps(cfg))
    a = tmp_path / "r1.json"
    b = tmp_path / "r2.json"
    assert main(["theorem1", "--config", str(cfile), "-o", str(a)]) == 0
    assert main(["theorem1", "--config", str(cfile), "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    report = json.loads(a.read_text())
    assert "leg_a" in report and "leg_b" in report


def test_theorem1_malformed_config_exits_2(tmp_path, capsys):
    cfile = tmp_path / "cfg.json"
    cfile.write_text('{"schedule": [3, 5],')
    assert main(["theorem1", "--config", str(cfile)]) == 2
    assert "bad config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad",
    [
        {"growth_k_max": 8000.5},
        {"doyle_n_max": 24.0},
        {"ratio_ns": [2, 3, 4.0, 5, 6]},
        {"doyle_grid_depth": True},
    ],
)
def test_theorem1_non_integer_config_exits_2(bad, tmp_path, capsys, monkeypatch):
    def no_graph(*args):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(theorem1, "triangular_ball", no_graph)
    monkeypatch.setattr(theorem1, "build_gamma", no_graph)
    cfile = tmp_path / "cfg.json"
    cfile.write_text(json.dumps(bad))
    assert main(["theorem1", "--config", str(cfile)]) == 2
    err = capsys.readouterr().err
    assert "bad config" in err and "must be integers" in err


@pytest.mark.parametrize(
    "bad, field",
    [
        ({"schedule": "21,8103"}, "schedule"),
        ({"ratio_ns": "23456"}, "ratio_ns"),
        ({"resistance_radii": "123"}, "resistance_radii"),
        ({"vel_annuli": "12"}, "vel_annuli"),
        ({"vel_annuli": [[1, 2], "24"]}, "vel_annuli"),
    ],
)
def test_theorem1_string_list_config_exits_2(
    bad, field, tmp_path, capsys, monkeypatch
):
    def no_graph(*args):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(theorem1, "triangular_ball", no_graph)
    monkeypatch.setattr(theorem1, "build_gamma", no_graph)
    cfile = tmp_path / "cfg.json"
    cfile.write_text(json.dumps(bad))
    assert main(["theorem1", "--config", str(cfile)]) == 2
    err = capsys.readouterr().err
    assert "bad config" in err
    assert f"config values must be lists, not strings: ['{field}']" in err
    assert "must be integers" not in err


@pytest.mark.parametrize("annulus", [[1], [1, 2, 3]])
def test_theorem1_annulus_not_a_pair_exits_2(annulus, tmp_path, capsys, monkeypatch):
    def no_graph(*args):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(theorem1, "triangular_ball", no_graph)
    monkeypatch.setattr(theorem1, "build_gamma", no_graph)
    cfile = tmp_path / "cfg.json"
    cfile.write_text(json.dumps({"vel_annuli": [annulus]}))
    assert main(["theorem1", "--config", str(cfile)]) == 2
    err = capsys.readouterr().err
    assert "bad config" in err
    assert f"vel_annuli entries must be pairs: [{tuple(annulus)}]" in err


def test_theorem1_unknown_config_key_exits_2(tmp_path, capsys):
    cfile = tmp_path / "cfg.json"
    cfile.write_text(json.dumps({"vel_annulus": [[1, 2]]}))
    assert main(["theorem1", "--config", str(cfile)]) == 2
    assert "vel_annulus" in capsys.readouterr().err


def test_theorem1_bad_annulus_exits_2(tmp_path, capsys, monkeypatch):
    def no_graph(*args):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(theorem1, "triangular_ball", no_graph)
    monkeypatch.setattr(theorem1, "build_gamma", no_graph)
    cfile = tmp_path / "cfg.json"
    cfile.write_text(json.dumps({"vel_annuli": [[1, 2], [3, 1]]}))
    assert main(["theorem1", "--config", str(cfile)]) == 2
    assert "bad annulus (3, 1)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        (
            '{"version": 1, "vertices": [{"id": 0, "rotation": []}], "frontier": [999]}',
            "frontier vertex 999",
        ),
        ('{"version": 1, "vertices": [', "not valid JSON"),
        ("[]", "a graph document must be a JSON object"),
        ('"x"', "a graph document must be a JSON object"),
        ('{"version": 1, "vertices": 5}', "'vertices' must be a list"),
        ('{"version": 1, "edges": {}}', "'edges' must be a list"),
        ('{"version": 1, "frontier": 0}', "'frontier' must be a list"),
        ('{"version": 1, "edges": [[0, 1]]}', "every edge record must be an object"),
        ('{"version": 1, "vertices": [0]}', "every vertex record must be an object"),
        (
            '{"version": 1, "edges": [{"id": 0, "halfedges": 5}]}',
            "every edge's half-edges must be a list",
        ),
        (
            '{"version": 1, "vertices": [{"id": 0, "rotation": 5}]}',
            "every vertex rotation must be a list",
        ),
        (
            '{"version": 1, "vertices": [{"id": 0, "rotation": []}], "tags": [0]}',
            "'tags' must be an object",
        ),
    ],
)
def test_gen_dual_bad_graph_file_exits_2(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["gen", "dual", "--graph", str(bad)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("enabled", [True, False])
def test_bad_json_graph_file_keeps_the_collector_state(enabled, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 1, "vertices": [')
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["gen", "dual", "--graph", str(bad)]) == 2
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["gen", kind] for kind in ("lambda", "extend", "subdivide4", "dual")]
    + [["analyze", kind] for kind in ("vel", "resistance", "nash-williams", "doyle")]
    + [["analyze", "fatness", "--disks", disks] for disks in ("0,0", "0,0,x", "0,0,1;")],
    ids=" ".join,
)
def test_usage_errors_exit_2(argv, capsys):
    # a missing --graph or a malformed disk list is a usage error, not a traceback
    assert main(argv) == 2
    want = (
        f"bad disks {argv[-1]!r}"
        if "--disks" in argv
        else "the following arguments are required: --graph"
    )
    assert want in capsys.readouterr().err


def test_analyze_doyle_past_grid_depth_exits_2_before_reading(monkeypatch, capsys):
    def no_graph(path):
        raise AssertionError("the graph was read before the depths were checked")

    monkeypatch.setattr("speiserlab.cli._read_graph", no_graph)
    argv = ["analyze", "doyle", "--graph", "g.json", "--n-max", "9", "--grid-depth", "8"]
    assert main(argv) == 2
    assert "exceeds the grid depth 8" in capsys.readouterr().err


# each line runs with --graph g.json added; the error it must report.  The
# Doyle depths, checked together after parsing, are the test above
BAD_FLAGS = [
    ("analyze vel --annuli 1-2", "bad annuli spec '1-2'"),
    ("analyze vel --annuli 3:1", "bad annuli spec '3:1': bad annulus (3, 1)"),
    ("analyze resistance --n-max 0", "bad radius '0': n must be >= 1, got [0]"),
    ("gen extend --grid-depth 0", "bad grid depth '0': grid_depth must be >= 1"),
    ("gen lambda --schedule 4,6", "unrecognized arguments: --schedule 4,6"),
    ("analyze fatness", "unrecognized arguments: --graph g.json"),
]


@pytest.mark.parametrize("line, message", BAD_FLAGS, ids=[line for line, _ in BAD_FLAGS])
def test_bad_flags_exit_2_before_the_graph_is_read(line, message, monkeypatch, capsys):
    # the range and syntax rules run while the flags are parsed, and a flag
    # that the kind does not read is an unrecognized argument
    def no_graph(path):
        raise AssertionError("the graph was read before the flags were checked")

    monkeypatch.setattr("speiserlab.cli._read_graph", no_graph)
    command, kind, *flags = line.split()
    argv = [command, kind, "--graph", "g.json", *flags, "-o", "out.json"]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad", [{"growth_k_min": 0}, {"upsilon_k_min": 30, "upsilon_k_max": 2}]
)
def test_theorem1_bad_k_range_exits_2(tmp_path, capsys, bad):
    cfile = tmp_path / "cfg.json"
    cfile.write_text(json.dumps(bad))
    assert main(["theorem1", "--config", str(cfile)]) == 2
    assert "_k_min <= " in capsys.readouterr().err


# sha256 prefixes of the default ratio-trend reports, as written when every
# ball was its own triangular_ball(q, n)
RATIO_TREND_SHA = {"hex": "1f1771750b564d5a", "tri8": "81a7768dc9d6e6c1"}


@pytest.mark.parametrize("family", ["hex", "tri8"])
def test_analyze_ratio_trend_pinned(tmp_path, family):
    out = tmp_path / "trend.json"
    assert main(["analyze", "ratio-trend", "--family", family, "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == RATIO_TREND_SHA[family]


@pytest.mark.parametrize("ns", ["0,2", "2,x"])
def test_analyze_ratio_trend_bad_radii_exit_2(ns, capsys):
    # text that is not a list of integers, or a radius that walk's rule rejects
    reason = {"0,2": "n must be >= 1, got [0]", "2,x": "need integers n >= 1"}[ns]
    assert main(["analyze", "ratio-trend", "--ns", ns]) == 2
    assert f"bad radii {ns!r}: {reason}" in capsys.readouterr().err


def _readme_cli_lines() -> list[list[str]]:
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("speiserlab ")]
    return [shlex.split(line)[1:] for line in lines]


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = _readme_cli_lines()
    assert len(lines) >= 8
    for argv in lines:
        assert main(argv) == 0, argv
    # every annulus of the VEL example lies inside the reliable depth
    vel = json.loads((tmp_path / "vel.json").read_text())
    assert vel["skipped"] == [] and len(vel["annuli"]) == 3


def _readme_flag_table() -> dict[str, list[str]]:
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
    return {
        command.strip().strip("`"): [f.strip().strip("`") for f in flags.split(",")]
        for command, flags in rows
    }


def _parser_flags(parser, words=()) -> dict[str, list[str]]:
    """Each leaf command of ``parser`` and the flags it declares."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        flags = [a.option_strings[0] for a in parser._actions if a.dest != "help"]
        return {" ".join(words): flags}
    out = {}
    for name, sub in subs[0].choices.items():
        out.update(_parser_flags(sub, words + (name,)))
    return out


def test_readme_flag_table_matches_the_parser():
    table = _readme_flag_table()
    assert len(table) == 13
    assert table == _parser_flags(build_parser())
