import json

import pytest

from cartanquiver import cli, flagvar, hmod, reduction

from conftest import MALFORMED_MODULE_FILES, dims_eps_file, golden_module

A2_CONFIG = {"n": 2, "C": [[2, -1], [-1, 2]], "D": [1, 1],
             "omega": [[1, 2]], "k": 2, "p": 5}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(A2_CONFIG))
    return str(path)


def run(args):
    return cli.main(args)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_algebra_check(config_path, tmp_path):
    out = tmp_path / "report.json"
    assert run(["algebra-check", "--config", config_path,
                "--output", str(out)]) == 0
    report = read_json(out)
    assert report["format_version"] == 1
    assert report["loop_orders"] == [2, 2]
    assert report["f_table"] == {"1,2": 1, "2,1": 1}
    assert report["config"]["n"] == 2


def test_algebra_check_b2_f_table(tmp_path):
    cfg = {"n": 2, "C": [[2, -1], [-2, 2]], "D": [2, 1], "omega": [[1, 2]]}
    path = tmp_path / "b2.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out.json"
    assert run(["algebra-check", "--config", str(path),
                "--output", str(out)]) == 0
    report = read_json(out)
    assert report["f_table"] == {"1,2": 1, "2,1": 2}


def test_bad_symmetrizer_exits_2(tmp_path, capsys):
    cfg = dict(A2_CONFIG, C=[[2, -1], [-2, 2]])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert run(["algebra-check", "--config", str(path)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [
    {"omega": [[1]]}, {"n": "two"}, {"k": "x"}, {"C": 5},
    {"omega": [["a", "b"]]}, {"D": [2.7, 1]}, {"C": [[2, -1.5], [-1, 2]]},
    {"n": 2.7}, {"k": 2.5}, {"p": 5.9}, {"omega": [[1.9, 2]]}, {"k": "2"},
])
def test_malformed_config_exits_2(tmp_path, capsys, entry):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(A2_CONFIG, **entry)))
    assert run(["algebra-check", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad ") and "Traceback" not in err


@pytest.mark.parametrize("p", ["6", "46349", "2147483647"])
def test_unsupported_modulus_exits_2(config_path, capsys, p):
    assert run(["algebra-check", "--config", config_path, "--p", p]) == 2
    assert "modulus" in capsys.readouterr().err


def test_zero_modulus_exits_2(config_path, capsys):
    """--p 0 is a modulus like any other, not "use the config's prime"."""
    assert run(["algebra-check", "--config", config_path, "--p", "0"]) == 2
    assert "modulus 0 is not prime" in capsys.readouterr().err


def test_reduce_to_level_zero_exits_2(config_path, tmp_path, capsys):
    """--to-k 0 is out of range, not "one level down"."""
    module_path = _rigid_module_file(config_path, tmp_path)
    reduced = tmp_path / "reduced.json"
    assert run(["reduce", "--config", config_path, "--module", module_path,
                "--to-k", "0", "--module-out", str(reduced)]) == 2
    assert "--to-k must be in [1, 1], got 0" in capsys.readouterr().err
    assert not reduced.exists()


def test_threads_option_removed(config_path, capsys):
    with pytest.raises(SystemExit):
        run(["bundle-check", "--config", config_path, "--rank", "1,1",
             "--brseq", "1,0;0,1", "--threads", "2"])
    assert "--threads" in capsys.readouterr().err


def test_rigid_and_flag_count_and_reduce(config_path, tmp_path):
    module_path = tmp_path / "rigid.json"
    out = tmp_path / "r.json"
    assert run(["rigid", "--config", config_path, "--rank", "1,1",
                "--module-out", str(module_path),
                "--output", str(out)]) == 0
    assert read_json(out)["report"]["found"]

    counts = tmp_path / "counts.json"
    csv_path = tmp_path / "counts.csv"
    assert run(["flag-count", "--config", config_path,
                "--module", str(module_path), "--brseq", "1,0;0,1",
                "--csv", str(csv_path), "--output", str(counts)]) == 0
    table = read_json(counts)["report"]
    assert table["polynomial"] == [1]
    assert table["chi_estimate"] == 1
    assert csv_path.read_text().startswith("q,count\n")

    reduced = tmp_path / "reduced.json"
    out2 = tmp_path / "red.json"
    assert run(["reduce", "--config", config_path,
                "--module", str(module_path), "--to-k", "1",
                "--module-out", str(reduced), "--output", str(out2)]) == 0
    rep = read_json(out2)["report"]
    assert rep["rank_before"] == rep["rank_after"] == [1, 1]
    assert rep["rigid_before"] and rep["rigid_after"]
    assert read_json(reduced)["k"] == 1


def test_reduce_writes_structure_for_standard_loops(config_path, tmp_path,
                                                   a2):
    # a dims/eps file whose loops are in standard form
    module_path = tmp_path / "raw.json"
    module_path.write_text(json.dumps(dims_eps_file(golden_module(a2, 2, 5))))
    out = tmp_path / "red.json"
    assert run(["reduce", "--config", config_path, "--module",
                str(module_path), "--output", str(out)]) == 0
    written = read_json(out)["report"]["module"]
    assert "rank" in written and "structure" in written
    want = reduction.reduce(
        hmod.module_from_dict(a2, read_json(module_path))).module
    assert hmod.modules_equal(hmod.module_from_dict(a2, written), want)


def _rigid_module_file(config_path, tmp_path):
    module_path = tmp_path / "rigid.json"
    assert run(["rigid", "--config", config_path, "--rank", "1,1",
                "--module-out", str(module_path),
                "--output", str(tmp_path / "r.json")]) == 0
    return str(module_path)


def test_report_write_error_exits_2(config_path, tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    assert run(["algebra-check", "--config", config_path,
                "--output", str(target)]) == 2
    assert "cannot write report file" in capsys.readouterr().err


def test_rigid_module_write_error_exits_2(config_path, tmp_path, capsys):
    target = tmp_path / "missing" / "m.json"
    assert run(["rigid", "--config", config_path, "--rank", "1,1",
                "--module-out", str(target)]) == 2
    assert "cannot write module file" in capsys.readouterr().err


def test_reduce_module_write_error_exits_2(config_path, tmp_path, capsys):
    module_path = _rigid_module_file(config_path, tmp_path)
    target = tmp_path / "missing" / "m.json"
    assert run(["reduce", "--config", config_path, "--module", module_path,
                "--to-k", "1", "--module-out", str(target)]) == 2
    assert "cannot write module file" in capsys.readouterr().err


def test_flag_count_csv_write_error_exits_2(config_path, tmp_path, capsys):
    module_path = _rigid_module_file(config_path, tmp_path)
    target = tmp_path / "missing" / "c.csv"
    assert run(["flag-count", "--config", config_path, "--module",
                module_path, "--brseq", "1,0;0,1", "--csv",
                str(target)]) == 2
    assert "cannot write CSV file" in capsys.readouterr().err


@pytest.mark.parametrize("form", ["structure", "arrows"])
def test_reduce_rejects_key_outside_orientation(config_path, tmp_path,
                                                capsys, form):
    # the config orients 1 -> 2; a "2,1" entry must not load as zero
    if form == "structure":
        module = {"k": 2, "p": 5, "rank": [1, 1],
                  "structure": {"2,1": [[[0, 1]]]}}
    else:
        module = {"k": 2, "p": 5, "dims": [2, 2],
                  "eps": [[[0, 0], [1, 0]]] * 2,
                  "arrows": {"2,1": [[[0, 0], [1, 0]]]}}
    module_path = tmp_path / "swapped.json"
    module_path.write_text(json.dumps(module))
    reduced = tmp_path / "reduced.json"
    assert run(["reduce", "--config", config_path,
                "--module", str(module_path), "--to-k", "1",
                "--module-out", str(reduced)]) == 2
    assert "(2,1)" in capsys.readouterr().err
    assert not reduced.exists()


def test_empty_brseq_rejected(config_path, tmp_path):
    module_path = tmp_path / "rigid.json"
    run(["rigid", "--config", config_path, "--rank", "1,1",
         "--module-out", str(module_path), "--output",
         str(tmp_path / "x.json")])
    assert run(["flag-count", "--config", config_path,
                "--module", str(module_path), "--brseq", ""]) == 2


def test_decomp_deterministic(config_path, tmp_path):
    out1 = tmp_path / "d1.json"
    out2 = tmp_path / "d2.json"
    args = ["decomp", "--config", config_path, "--rank", "1,1",
            "--p", "2", "--kmax", "2", "--seed", "11"]
    assert run(args + ["--output", str(out1)]) == 0
    assert run(args + ["--output", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    rep = read_json(out1)["report"]
    assert rep["agree"]
    assert rep["reports"][0]["parts"] == [[1, 1]]


def test_decomp_empty_rank(config_path, tmp_path):
    out = tmp_path / "d.json"
    assert run(["decomp", "--config", config_path, "--rank", "0,0",
                "--output", str(out)]) == 0
    assert read_json(out)["report"]["parts"] == []


def test_bundle_check(config_path, tmp_path):
    out = tmp_path / "b.json"
    assert run(["bundle-check", "--config", config_path, "--rank", "1,1",
                "--brseq", "1,0;0,1", "--kmax", "3", "--p", "2",
                "--output", str(out)]) == 0
    report = read_json(out)["report"]
    assert len(report) == 2
    assert all(level["found_rigid"] and level["ok_for_rigid"]
               for level in report)


def test_rigid_none_found_message(tmp_path):
    cfg = {"n": 2, "C": [[2, -2], [-2, 2]], "D": [1, 1],
           "omega": [[1, 2]], "k": 1, "p": 2}
    path = tmp_path / "kron.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "r.json"
    assert run(["rigid", "--config", str(path), "--rank", "1,1",
                "--trials", "5", "--output", str(out)]) == 0
    rep = read_json(out)["report"]
    assert not rep["found"]
    assert rep["none_exists"]
    assert "no rigid module" in rep["message"]


def test_flag_count_level_override(config_path, tmp_path):
    module_path = tmp_path / "rigid.json"
    run(["rigid", "--config", config_path, "--rank", "1,1",
         "--module-out", str(module_path), "--output",
         str(tmp_path / "r.json")])
    out = tmp_path / "c.json"
    assert run(["flag-count", "--config", config_path,
                "--module", str(module_path), "--brseq", "1,0;0,1",
                "--k", "1", "--output", str(out)]) == 0
    assert read_json(out)["report"]["k"] == 1


@pytest.mark.parametrize("data", [d for d, _ in MALFORMED_MODULE_FILES])
def test_malformed_module_file_exits_2(config_path, tmp_path, capsys, data):
    path = tmp_path / "bad_module.json"
    path.write_text(json.dumps(data))
    assert run(["reduce", "--config", config_path, "--module",
                str(path)]) == 2
    assert "error" in capsys.readouterr().err


def _expect_exit_2(args, capsys, needle):
    assert run(args) == 2
    err = capsys.readouterr().err
    assert "error" in err and needle in err and "Traceback" not in err


@pytest.mark.parametrize("command,rank", [
    ("rigid", "1,1,1"), ("rigid", "1"), ("decomp", "1,1,1"),
    ("decomp", "1"), ("bundle-check", "1,1,1")])
def test_wrong_rank_length_exits_2(config_path, capsys, command, rank):
    # A2 has two vertices; no rank of another length reaches a scan
    args = [command, "--config", config_path, "--rank", rank, "--p", "2"]
    if command == "bundle-check":
        args += ["--brseq", "1,0;0,1"]
    _expect_exit_2(args, capsys, "rank vector length")


@pytest.mark.parametrize("option,value", [
    ("--rank", "1,x"), ("--brseq", "1,x"), ("--primes", "2,x")])
def test_non_integer_list_exits_2(config_path, capsys, option, value):
    args = {"--rank": "1,1", "--brseq": "1,0;0,1", "--primes": "2,3"}
    args[option] = value
    argv = ["bundle-check", "--config", config_path, "--p", "2"]
    for key, text in args.items():
        argv += [key, text]
    _expect_exit_2(argv, capsys, repr(value))


@pytest.mark.parametrize("command", ["decomp", "rigid"])
def test_negative_k_exits_2(config_path, capsys, command):
    _expect_exit_2([command, "--config", config_path, "--rank", "1,1",
                    "--k", "-1"], capsys, "--k must be >= 0")


@pytest.mark.parametrize("content", [None, "{not json", "\xff\xfe"])
def test_unreadable_config_exits_2(tmp_path, capsys, content):
    path = tmp_path / "a2.json"
    if content is not None:
        path.write_bytes(content.encode("latin-1"))
    _expect_exit_2(["algebra-check", "--config", str(path)], capsys,
                   "cannot read config file")


def test_config_not_a_mapping_exits_2(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    _expect_exit_2(["algebra-check", "--config", str(path)], capsys,
                   "config must hold a mapping")


@pytest.mark.parametrize("content", [None, "{not json"])
def test_unreadable_module_exits_2(config_path, tmp_path, capsys, content):
    path = tmp_path / "module.json"
    if content is not None:
        path.write_text(content)
    _expect_exit_2(["flag-count", "--config", config_path, "--module",
                    str(path), "--brseq", "1,0;0,1"], capsys,
                   "cannot read module file")


def test_negative_kmax_exits_2(config_path, capsys):
    # before, --kmax -1 reported "agree": true over zero levels
    _expect_exit_2(["decomp", "--config", config_path, "--rank", "1,1",
                    "--kmax", "-1"], capsys, "k_max must be >= 1")


def test_bundle_check_kmax_below_2_exits_2(config_path, capsys):
    # before, --kmax 1 reported an empty list of levels
    _expect_exit_2(["bundle-check", "--config", config_path, "--rank",
                    "1,1", "--brseq", "1,0;0,1", "--kmax", "1"], capsys,
                   "--kmax must be >= 2")


def test_bundle_check_kmax_0_exits_2(config_path, capsys):
    # before, --kmax 0 ran at the default max(k, 2) and exited 0
    _expect_exit_2(["bundle-check", "--config", config_path, "--rank",
                    "1,1", "--brseq", "1,0;0,1", "--kmax", "0"], capsys,
                   "--kmax must be >= 2, got 0")


def test_bundle_check_repeated_prime_exits_2(config_path, capsys):
    # before, --primes 2,2 reported the q = 2 row twice, where
    # flag-count --primes 3,3 exits 2
    _expect_exit_2(["bundle-check", "--config", config_path, "--rank",
                    "1,1", "--brseq", "1,0;0,1", "--p", "2", "--primes",
                    "2,2"], capsys, "primes must be distinct")


def test_flag_count_repeated_prime_exits_2(config_path, tmp_path, capsys,
                                           monkeypatch):
    # the counting polynomial of this flag has degree bound 0, so both
    # primes are counted: before, it counted twice at q = 3 and then
    # reported "interpolation points must be distinct"
    module_path = tmp_path / "rigid.json"
    assert run(["rigid", "--config", config_path, "--rank", "1,1",
                "--module-out", str(module_path),
                "--output", str(tmp_path / "r.json")]) == 0
    counted = []
    monkeypatch.setattr(flagvar, "point_count",
                        lambda *args: counted.append(args))
    _expect_exit_2(["flag-count", "--config", config_path, "--module",
                    str(module_path), "--brseq", "1,0;0,1", "--primes",
                    "3,3"], capsys, "primes must be distinct")
    assert counted == []


@pytest.mark.parametrize("primes,needle", [
    ("2,2", "primes must be distinct"), ("2,4", "modulus 4 is not prime")])
def test_bundle_check_primes_refused_before_search(tmp_path, capsys, primes,
                                                   needle):
    # no rigid Kronecker module of rank (1,1) is found in 5 trials, so
    # before, the repeated or non-prime modulus reached no check: exit 0
    path = tmp_path / "kronecker.json"
    path.write_text(json.dumps({"n": 2, "C": [[2, -2], [-2, 2]],
                                "D": [1, 1], "omega": [[1, 2]], "k": 2,
                                "p": 2}))
    _expect_exit_2(["bundle-check", "--config", str(path), "--rank", "1,1",
                    "--brseq", "1,0;0,1", "--primes", primes, "--trials",
                    "5"], capsys, needle)


def test_flag_count_budget_exceeded_exits_3(config_path, tmp_path, capsys,
                                            monkeypatch):
    # rank (2,2) with a non-zero arrow, which can constrain the bottom
    # layer (0,1) inside the top layer (1,1): the count searches the top
    # layer, whose first vertex has more than one candidate and no
    # closure test (a count whose lower layers no arrow can constrain
    # takes them in closed form and is never refused)
    module_path = tmp_path / "arrow.json"
    module_path.write_text(json.dumps(
        {"k": 2, "p": 5, "rank": [2, 2],
         "structure": {"1,2": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}}))
    args = ["flag-count", "--config", config_path, "--module",
            str(module_path), "--brseq", "0,1;1,0;1,1"]
    assert run(args) == 0
    capsys.readouterr()
    monkeypatch.setattr(flagvar, "VERTEX_CANDIDATE_BUDGET", 1)
    assert run(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: vertex 1 has ")
    assert "VERTEX_CANDIDATE_BUDGET = 1" in err


@pytest.mark.parametrize("rank", ["0,0", "1,0", "1,1"])
@pytest.mark.parametrize("kmax", ["0", "2"])
def test_decomp_samples_below_one_exits_2(config_path, capsys, rank, kmax):
    # before, rank 1,0 reported and rank 1,1 raised inside ext_generic
    _expect_exit_2(["decomp", "--config", config_path, "--rank", rank,
                    "--samples", "0", "--kmax", kmax], capsys,
                   "samples must be >= 1")


@pytest.mark.parametrize("command", [
    ["rigid"], ["bundle-check", "--brseq", "1,0;0,1"]])
def test_negative_trials_exits_2(config_path, capsys, command):
    # before, rigid --trials -3 reported a search
    _expect_exit_2([*command, "--config", config_path, "--rank", "1,1",
                    "--trials", "-1"], capsys, "trials must be >= 0")
