import hashlib
import json
import os
import subprocess
import sys

import pytest

import edgecount.cli
import edgecount.generators
from edgecount.cli import main

C_FLAGS = ["--c-s", "1.5", "--c-t", "2.5", "--c-f", "3", "--c-r", "4", "--collision-reps", "3"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_estimate_prints_report_json(capsys):
    code, out, _ = run_cli(capsys, "estimate", "--graph", "gnm:400,1500", "--eps", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 400
    assert payload["branch"] in {"collision", "non_collision"}
    assert payload["m_hat"] > 0
    assert set(payload["queries"]) == {"deg", "rand_edge"}
    assert payload["params"]["epsilon"] == 0.5
    assert payload["params"]["degree_sample_size"] > 0


def test_estimate_stdout_is_deterministic(capsys):
    first = run_cli(capsys, "estimate", "--graph", "gnm:400,1500", "--eps", "0.5", "--seed", "3")
    second = run_cli(capsys, "estimate", "--graph", "gnm:400,1500", "--eps", "0.5", "--seed", "3")
    assert first == second


def test_estimate_from_file_matches_spec_source(capsys, tmp_path):
    path = tmp_path / "graph.txt"
    code, _, _ = run_cli(capsys, "gen", "--graph", "gnm:400,1500", "--seed", "3", "--out", str(path))
    assert code == 0
    from_spec = run_cli(capsys, "estimate", "--graph", "gnm:400,1500", "--eps", "0.5", "--seed", "3")
    from_file = run_cli(capsys, "estimate", "--file", str(path), "--eps", "0.5", "--seed", "3")
    assert from_file == from_spec
    from_file_spec = run_cli(capsys, "estimate", "--graph", f"file:{path}", "--eps", "0.5", "--seed", "3")
    assert from_file_spec == from_file


def test_estimate_empty_graph_exits_cleanly(capsys, tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("6\n")
    code, out, _ = run_cli(capsys, "estimate", "--file", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["branch"] == "zero_edges"
    assert payload["m_hat"] == 0.0


def test_estimate_failed_branch_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "estimate", "--graph", "clique_plus_isolated:100,99", "--c-s", "0.0001", "--seed", "0"
    )
    assert code == 2
    assert json.loads(out)["m_hat"] is None


def test_gen_writes_edge_list(capsys, tmp_path):
    path = tmp_path / "path5.txt"
    code, out, _ = run_cli(capsys, "gen", "--graph", "path:5", "--out", str(path))
    assert code == 0
    assert path.read_text() == "5\n0 1\n1 2\n2 3\n3 4\n"
    assert "n=5 m=4" in out


def test_bench_writes_named_files(capsys, tmp_path):
    out_dir = tmp_path / "results"
    code, out, err = run_cli(
        capsys,
        "bench", "--graph", "gnm:300,900", "--eps", "0.5", "--trials", "2",
        "--seed", "1", "--out", str(out_dir),
    )
    assert code == 0
    csv_path = out_dir / "bench-300-0.5-1.csv"
    json_path = out_dir / "bench-300-0.5-1.json"
    assert csv_path.exists() and json_path.exists()
    assert len(csv_path.read_text().splitlines()) == 3
    assert out == json_path.read_text()
    assert "wrote" in err
    summary = json.loads(json_path.read_text())
    assert summary["experiment"] == "bench"
    assert summary["trials"] == 2


def test_bench_outputs_are_byte_stable(capsys, tmp_path):
    args = ["bench", "--graph", "gnm:300,900", "--eps", "0.5", "--trials", "2", "--seed", "1"]
    run_cli(capsys, *args, "--out", str(tmp_path / "a"))
    run_cli(capsys, *args, "--out", str(tmp_path / "b"))
    for name in ("bench-300-0.5-1.csv", "bench-300-0.5-1.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_bench_csv_format_prints_rows(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "bench", "--graph", "gnm:300,900", "--eps", "0.5", "--trials", "2",
        "--seed", "1", "--out", str(tmp_path), "--format", "csv",
    )
    assert code == 0
    assert out == (tmp_path / "bench-300-0.5-1.csv").read_text()
    assert out.startswith("trial,")


def test_lowerbound_writes_named_files(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "lowerbound", "--n", "1000", "--q", "5", "--trials", "5",
        "--seed", "2", "--out", str(tmp_path),
    )
    assert code == 0
    csv_path = tmp_path / "lowerbound-1000-5-2.csv"
    assert csv_path.exists()
    assert len(csv_path.read_text().splitlines()) == 6
    summary = json.loads(out)
    assert summary["experiment"] == "lowerbound"
    assert summary["q"] == 5


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["estimate", "--graph", "gnm:2000,8000", "--seed", "3"], "e2ab6601e0338a60"),
        (["estimate", "--graph", "gnm:2000,8000", "--seed", "5", *C_FLAGS], "9ba1f3c31a5d2758"),
        (["bench", "--graph", "gnm:300,900", "--eps", "0.5", "--trials", "3", "--seed", "1"], "8052af91d8510e92"),
        (
            ["bench", "--graph", "gnm:300,900", "--eps", "0.5", "--trials", "3", "--seed", "1", "--format", "csv", *C_FLAGS],
            "d8edafeb6284d68d",
        ),
        (["lowerbound", "--n", "1000", "--q", "5", "--trials", "5", "--seed", "2"], "bfb0794af5549a19"),
        (["lowerbound", "--n", "1000", "--q", "5", "--trials", "5", "--seed", "2", "--format", "csv"], "01e77567b19d35ab"),
    ],
)
def test_cli_bytes_are_pinned(capsys, tmp_path, argv, digest):
    # sha256 of stdout, then of each written file's name and bytes in name order
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(capsys, *argv, *([] if argv[0] == "estimate" else ["--out", str(out_dir)]))
    assert code == 0
    h = hashlib.sha256(out.encode())
    for path in sorted(out_dir.glob("*")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    assert h.hexdigest()[:16] == digest


@pytest.mark.parametrize("command", ["estimate", "bench"])
@pytest.mark.parametrize("source", [["--graph", "gnm:3000000,6000000"], ["--file", "never-read.txt"]])
@pytest.mark.parametrize(
    "option, message",
    [("--eps=0.9", "epsilon must be in (0, 0.8]"), ("--collision-reps=0", "collision_reps must be at least 1")],
)
def test_bad_parameters_exit_one_before_the_graph_is_built(
    capsys, monkeypatch, tmp_path, command, source, option, message
):
    def no_graph(*args):
        raise AssertionError("the graph was built before the parameters were checked")

    monkeypatch.setattr(edgecount.generators, "gen_gnm", no_graph)
    monkeypatch.setattr(edgecount.generators, "read_edge_list", no_graph)
    monkeypatch.setattr(edgecount.cli, "read_edge_list", no_graph)
    monkeypatch.setenv("EDGECOUNT_OUT_DIR", str(tmp_path))
    assert run_cli(capsys, command, *source, option) == (1, "", f"error: {message}\n")
    assert not any(tmp_path.iterdir())


def test_out_dir_env_var_is_honored(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("EDGECOUNT_OUT_DIR", str(tmp_path / "env"))
    code, _, _ = run_cli(
        capsys, "bench", "--graph", "gnm:300,900", "--eps", "0.5", "--trials", "1", "--seed", "1"
    )
    assert code == 0
    assert (tmp_path / "env" / "bench-300-0.5-1.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--graph", "bogus:5"],
        ["estimate"],
        ["estimate", "--graph", "path:100", "--eps", "1.5"],
        ["estimate", "--file", "/nonexistent/never.txt"],
        ["gen", "--graph", "gnm:10,999", "--seed", "0", "--out", "/dev/null"],
        ["lowerbound", "--n", "10", "--q", "0"],
        ["lowerbound", "--n", "10", "--q", "-1"],
        ["lowerbound", "--n", "10", "--trials", "0"],
        ["lowerbound", "--n", "3"],
        ["bench", "--graph", "gnm:300,900", "--trials", "0"],
        ["bench", "--graph", "gnm:300,900", "--trials", "-3"],
    ],
)
def test_bad_inputs_exit_one(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.setenv("EDGECOUNT_OUT_DIR", str(tmp_path))
    code, _, _ = run_cli(capsys, *argv)
    assert code == 1
    assert not any(tmp_path.iterdir())


SEED_ARGV = {
    "estimate": ["--graph", "gnm:2000,8000"],
    "bench": ["--graph", "gnm:300,900", "--eps", "0.5", "--trials", "1"],
    "gen": ["--graph", "gnm:300,900"],
    "lowerbound": ["--n", "100", "--q", "5", "--trials", "1"],
}


@pytest.mark.parametrize("command", sorted(SEED_ARGV))
@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seeds_outside_64_bits_exit_one(capsys, monkeypatch, tmp_path, command, seed):
    # --seed -1 used to print the same estimate as --seed 18446744073709551615
    monkeypatch.setenv("EDGECOUNT_OUT_DIR", str(tmp_path))
    out = ["--out", str(tmp_path / "g.txt")] if command == "gen" else []
    message = f"error: master_seed must lie in 0..{2**64 - 1}, got {seed}\n"
    assert run_cli(capsys, command, *SEED_ARGV[command], *out, "--seed", str(seed)) == (1, "", message)
    assert not any(tmp_path.iterdir())


def test_seeds_at_both_ends_of_64_bits_estimate_differently(capsys):
    low, high = (run_cli(capsys, "estimate", *SEED_ARGV["estimate"], "--seed", str(seed)) for seed in (0, 2**64 - 1))
    assert low[0] == high[0] == 0
    assert json.loads(low[1])["m_hat"] != json.loads(high[1])["m_hat"]


@pytest.mark.parametrize("option", ["--c-s=inf", "--c-r=inf", "--c-s=nan", "--c-f=1e308", "--eps=1e-300"])
def test_unusable_estimator_parameters_exit_one_without_traceback(subprocess_env, option):
    result = subprocess.run(
        [sys.executable, "-m", "edgecount.cli", "estimate", "--graph", "gnm:1000,2000", option],
        capture_output=True,
        text=True,
        env=subprocess_env,
        timeout=60,
    )
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("eps, c_s, gamma", [("1e-9", "1e-30", "1e-10"), ("1e-100", "1e-300", "1e-101")])
def test_plans_with_too_many_buckets_exit_one_naming_gamma(subprocess_env, eps, c_s, gamma):
    # the plan fits under MAX_PLAN_QUERIES, but its bucket table would not fit in memory
    small = ["--c-s", c_s, "--c-t", "1", "--c-f", c_s, "--c-r", "1e-30"]
    result = subprocess.run(
        [sys.executable, "-m", "edgecount.cli", "estimate", "--graph", "gnm:1000,2000", "--eps", eps, *small],
        capture_output=True,
        text=True,
        env=subprocess_env,
        timeout=60,
    )
    assert result.returncode == 1
    assert result.stdout == ""
    expected = f"error: bucket_count at n=1000, gamma={gamma} needs more than MAX_BUCKETS=1048576 buckets\n"
    assert result.stderr == expected


@pytest.mark.parametrize("c_s, shown", [("1e12", "1000000000000.0"), ("1e300", "1e+300")])
def test_plans_above_the_query_ceiling_exit_one_naming_c_s(subprocess_env, c_s, shown):
    result = subprocess.run(
        [sys.executable, "-m", "edgecount.cli", "estimate", "--graph", "gnm:1000,2000", "--c-s", c_s],
        capture_output=True,
        text=True,
        env=subprocess_env,
        timeout=60,
    )
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == (
        "error: the plan at n=1000 has more than MAX_PLAN_QUERIES=4294967296 queries; "
        f"its largest block, the degree sample, comes from c_s={shown}, epsilon=0.25\n"
    )


def test_closed_stdout_exits_141_quietly(subprocess_env):
    # the reader is gone before the CLI writes, like `edgecount estimate | head -0`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "edgecount.cli", "estimate", "--graph", "gnm:400,1500", "--eps", "0.5"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=subprocess_env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 141
    assert result.stderr == b""


@pytest.mark.parametrize(
    "text",
    [
        "",
        "abc\n0 1\n",
        "3 3\n0 1\n",
        "3\n0\n",
        "3\n0 1 2\n",
        "3\n1\x0b2\n",
        "3\n1\x0c2\n",
        "3\n1\x1c2\n",
        "3\n0 1\n#0 2\n",
        "3\n0 1.0\n",
        "3\r\n0 1\r\n1\r\n",
        "3\n1_0 2\n",
        "30\n1_0 2\n",
        "1_0\n0 1\n",
        "3\n0 0\n",
        "3\n99999999999999999999 1\n",
    ],
)
def test_corrupted_edge_list_exits_one(capsys, tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_bytes(text.encode("ascii"))
    code, out, err = run_cli(capsys, "estimate", "--file", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_endpoint_beyond_int64_exits_one_without_traceback(capsys, tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text("3\n99999999999999999999 1\n")
    code, out, err = run_cli(capsys, "estimate", "--file", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: edge endpoint beyond the int64 range: out of range for n=3\n"


def test_bench_from_file_matches_bench_from_file_spec(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, "gen", "--graph", "gnm:300,900", "--seed", "3", "--out", "g.txt")[0] == 0
    from_file, from_file_spec = (
        run_cli(capsys, "bench", *source, "--trials", "2", "--out", out)[:2]
        for source, out in ((["--file", "g.txt"], "a"), (["--graph", "file:g.txt"], "b"))
    )
    assert from_file == from_file_spec and from_file[0] == 0
    assert json.loads(from_file[1])["graph"] == "file:g.txt"
    names = sorted(path.name for path in (tmp_path / "a").iterdir())
    assert names == ["bench-300-0.25-0.csv", "bench-300-0.25-0.json"]
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
