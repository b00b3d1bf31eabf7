import json
import time
from fractions import Fraction

import pytest

from ttw4d import cli, lattice, suites
from ttw4d.model import SystemParams


def run_main(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# -- verify: happy paths ------------------------------------------------------------

def test_verify_single_suite_passes(tmp_path, capsys):
    rep = tmp_path / "m1.json"
    code, out, err = run_main(["verify", "--suite", "m1", "--k", "2,1,1",
                               "--a", "1/2,1/2,1/2,1/2",
                               "--report", str(rep)], capsys)
    assert code == 0
    assert "overall: PASS" in out
    doc = json.loads(rep.read_text())
    assert doc["suite"] == "m1"
    assert doc["pass"] is True
    assert doc["params"]["k"] == ["2", "1", "1"]
    assert doc["params"]["seed"] == cli.DEFAULT_SEED
    assert doc["max_residual"] == pytest.approx(
        max((c["residual"] for c in doc["cases"]), default=0.0))
    assert all(c["pass"] for c in doc["cases"])


def test_verify_deterministic_reports(tmp_path, capsys):
    argv = ["verify", "--suite", "xi", "--k", "2,1,1", "--a", "1/2,1/2,1/2,1/2"]
    paths = []
    for name in ("a.json", "b.json"):
        rep = tmp_path / name
        code, _, _ = run_main(argv + ["--report", str(rep)], capsys)
        assert code == 0
        paths.append(rep)
    docs = [json.loads(p.read_text()) for p in paths]
    for d in docs:
        d.pop("wall_ms")
    assert docs[0] == docs[1]  # byte-identical modulo wall time


def test_verify_custom_seed_and_points(tmp_path, capsys):
    rep = tmp_path / "r.json"
    code, _, _ = run_main(["verify", "--suite", "eigen", "--k", "1,1,1",
                           "--a", "1/2,1/2,1/2,1/2", "--nmax", "1",
                           "--points", "4", "--seed", "99",
                           "--report", str(rep)], capsys)
    assert code == 0
    doc = json.loads(rep.read_text())
    assert doc["params"]["seed"] == 99
    assert doc["params"]["points"] == 4
    assert doc["params"]["nmax"] == 1


def test_verify_ladders_samples_requested_points(tmp_path, capsys, monkeypatch):
    """--points N samples N points in the ladders suite, as the report says."""
    asked = []
    sample = suites.sample_points

    def recording(params, count, seed, *args, **kwargs):
        asked.append(count)
        return sample(params, count, seed, *args, **kwargs)

    monkeypatch.setattr(suites, "sample_points", recording)
    rep = tmp_path / "r.json"
    code, _, _ = run_main(["verify", "--suite", "ladders", "--k", "2,1,1",
                           "--a", "1/2,1/2,1/2,1/2", "--points", "25",
                           "--report", str(rep)], capsys)
    assert code == 0
    assert asked == [25]
    assert json.loads(rep.read_text())["params"]["points"] == 25


def test_verify_csv_report(tmp_path, capsys):
    rep = tmp_path / "r.csv"
    code, _, _ = run_main(["verify", "--suite", "curvature", "--k", "2,1,1",
                           "--a", "1/2,1/2,1/2,1/2", "--format", "csv",
                           "--report", str(rep)], capsys)
    assert code == 0
    lines = rep.read_text().splitlines()
    assert lines[0] == "suite,case,residual,pass"
    assert len(lines) > 1
    assert all(line.startswith("curvature,") for line in lines[1:])
    assert all(line.endswith(",true") for line in lines[1:])


def test_verify_convention_printed_fails(capsys):
    code, out, _ = run_main(["verify", "--suite", "algebra", "--k", "2,1,1",
                             "--a", "1/2,1/2,1/2,1/2",
                             "--convention", "printed"], capsys)
    assert code == 1
    assert "overall: FAIL" in out
    assert "FAIL" in out


def test_verify_example211_defaults_k(capsys):
    code, out, _ = run_main(["verify", "--suite", "example211",
                             "--a", "1/2,1/2,1/2,1/2"], capsys)
    assert code == 0
    assert "k=2,1,1" in out


# -- verify: usage errors exit 2 ------------------------------------------------------

def test_example211_rejects_other_k(capsys):
    code, _, err = run_main(["verify", "--suite", "example211",
                             "--k", "3,1,1"], capsys)
    assert code == 2
    assert "error:" in err


def test_bad_rational_exits_2(capsys):
    code, _, err = run_main(["verify", "--suite", "m1", "--k", "2/0,1,1"], capsys)
    assert code == 2
    assert "error:" in err


def test_nmax_out_of_range_exits_2(capsys):
    code, _, err = run_main(["verify", "--suite", "eigen", "--k", "1,1,1",
                             "--nmax", "9"], capsys)
    assert code == 2
    assert "error:" in err


def test_wrong_tuple_length_exits_2(capsys):
    code, _, err = run_main(["verify", "--suite", "m1", "--k", "2,1"], capsys)
    assert code == 2
    assert "error:" in err


def test_unknown_suite_exits_2(capsys):
    # argparse rejects the choice itself and exits with the usage code
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


# -- config file -----------------------------------------------------------------------

def test_config_file_merge_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# smoke config\n"
                   "suite = m1\n"
                   "k = 2,1,1\n"
                   "a = 1/2,1/2,1/2,1/2\n"
                   "seed = 7\n"
                   "points = 5\n")
    rep = tmp_path / "r.json"
    code, _, _ = run_main(["verify", "--config", str(cfg), "--seed", "9",
                           "--report", str(rep)], capsys)
    assert code == 0
    doc = json.loads(rep.read_text())
    assert doc["suite"] == "m1"          # from config
    assert doc["params"]["seed"] == 9    # flag beats config
    assert doc["params"]["points"] == 5  # config beats default


def test_config_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("suite = m1\nverbosity = 3\n")
    code, _, err = run_main(["verify", "--config", str(cfg)], capsys)
    assert code == 2
    assert "unknown key" in err


def test_config_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run_main(["verify", "--config", str(tmp_path / "nope.cfg")],
                            capsys)
    assert code == 2


@pytest.mark.parametrize("command", ["verify", "spectrum"])
def test_config_unknown_format_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                       command):
    """A format from the config file is checked before the first suite runs
    or the first row is printed."""
    def no_work(*args):
        raise AssertionError("work started before the format was checked")
    monkeypatch.setattr(cli, "run_suite", no_work)
    monkeypatch.setattr(cli, "spectrum_table", no_work)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("k = 2,1,1\nformat = xml\n")
    rep = tmp_path / "r.xml"
    code, out, err = run_main([command, "--config", str(cfg), "--report", str(rep)],
                              capsys)
    assert code == 2
    assert "unknown report format 'xml'" in err
    assert out == "" and not rep.exists()


# -- spectrum --------------------------------------------------------------------------

def test_spectrum_ground_row(tmp_path, capsys):
    rep = tmp_path / "spec.json"
    code, out, _ = run_main(["spectrum", "--k", "1,1,1",
                             "--a", "1/2,1/2,1/2,1/2", "--nmax", "1",
                             "--report", str(rep)], capsys)
    assert code == 0
    rows = json.loads(rep.read_text())
    assert rows[0]["state"] == [0, 0, 0, 0]
    assert rows[0]["E"] == "-12*w"
    assert rows[0]["class"] == "g1"
    assert rows[0]["degeneracy"] == 1
    # the four unit states share the next class
    second = [r for r in rows if r["class"] == "g2"]
    assert len(second) == 4
    assert all(r["degeneracy"] == 4 for r in second)
    assert "g1 (x1)" in out


def test_spectrum_shared_class_k211(tmp_path, capsys):
    rep = tmp_path / "spec.json"
    code, _, _ = run_main(["spectrum", "--k", "2,1,1",
                           "--a", "1/2,1/2,1/2,1/2", "--nmax", "2",
                           "--report", str(rep)], capsys)
    assert code == 0
    rows = json.loads(rep.read_text())
    by_state = {tuple(r["state"]): r for r in rows}
    assert by_state[(2, 0, 0, 0)]["class"] == by_state[(0, 1, 0, 0)]["class"]
    assert by_state[(2, 0, 0, 0)]["E"] == by_state[(0, 1, 0, 0)]["E"]


def test_spectrum_nmax_zero_single_row(tmp_path, capsys):
    rep = tmp_path / "spec.json"
    code, _, _ = run_main(["spectrum", "--k", "2,1,2",
                           "--a", "1/3,2/5,3/7,1/2", "--nmax", "0",
                           "--report", str(rep)], capsys)
    assert code == 0
    rows = json.loads(rep.read_text())
    assert len(rows) == 1
    assert rows[0]["state"] == [0, 0, 0, 0]


def test_spectrum_csv(tmp_path, capsys):
    rep = tmp_path / "spec.csv"
    code, _, _ = run_main(["spectrum", "--k", "1,1,1",
                           "--a", "1/2,1/2,1/2,1/2", "--nmax", "1",
                           "--format", "csv", "--report", str(rep)], capsys)
    assert code == 0
    lines = rep.read_text().splitlines()
    assert lines[0].startswith("state,A0,ell1,")
    assert len(lines) == 1 + 16


# -- the full battery -------------------------------------------------------------------

def test_full_battery_default_grid(tmp_path, capsys):
    """`verify --suite all` over the default grid: passes, and in under 60 s."""
    rep = tmp_path / "all.json"
    t0 = time.perf_counter()
    code, out, _ = run_main(["verify", "--suite", "all",
                             "--report", str(rep)], capsys)
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert "overall: PASS" in out
    assert elapsed < 60.0, f"battery took {elapsed:.1f}s"
    docs = json.loads(rep.read_text())
    assert len(docs) == 8  # 4 k-tuples x 2 a-tuples
    assert all(d["pass"] for d in docs)
    # example211 runs only on the one commensurate tuple it is defined for
    has211 = [any(c["id"].startswith("example211:") for c in d["cases"])
              for d in docs]
    assert sum(has211) == 2  # k=(2,1,1) under both a-tuples


def test_broken_xi_reports_fail(tmp_path, capsys, monkeypatch):
    """A ladder that leaves the chain gives a failing case, not a traceback."""
    steps = lattice._xi_steps

    def one_k0_step_too_many(params, i, sign):
        extra = (("K0-", None),) if (i, sign) == (1, "+") else ()
        return steps(params, i, sign) + extra

    monkeypatch.setattr(lattice, "_xi_steps", one_k0_step_too_many)
    p = SystemParams(2, 1, 1, *(Fraction(1, 2),) * 4)
    with pytest.raises(lattice.ChainBroken):
        lattice.xi_action(1, "+", p, (3, 2, 2, 2))
    rep = tmp_path / "xi.json"
    code, out, _ = run_main(["verify", "--suite", "xi", "--k", "2,1,1",
                             "--report", str(rep)], capsys)
    assert code == 1
    assert "overall: FAIL" in out
    docs = json.loads(rep.read_text())
    assert len(docs) == len(cli.DEFAULT_A_GRID)
    for doc in docs:
        failing = [c["id"] for c in doc["cases"] if not c["pass"]]
        assert failing and all("Xi_1^+" in cid for cid in failing), failing
    witnesses = lattice.xi_class_check(p, nmax=3)
    assert witnesses
    assert all((i, sign) == (1, "+") for _, i, sign, _ in witnesses)
