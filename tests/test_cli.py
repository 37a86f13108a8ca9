"""End-to-end CLI behaviour: exit codes, JSON shape, determinism."""

import json
import os
import subprocess
import sys
import time
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from salemforge import cli, mcmullen
from salemforge.mau import load_sequence

from conftest import doubled

PHI_14 = [1, -1, 0, -1, 1, 0, 0, -1, 0, 0, 1, -1, 0, -1, 1]


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("SALEMFORGE_PRECISION", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "salemforge.cli", *args],
                          capture_output=True, env=env)


def _assert_no_bare_floats(obj):
    if isinstance(obj, float):
        raise AssertionError(f"bare float in report: {obj!r}")
    if isinstance(obj, dict):
        for v in obj.values():
            _assert_no_bare_floats(v)
    elif isinstance(obj, list):
        for v in obj:
            _assert_no_bare_floats(v)


def test_coxeter_factor_19():
    res = run_cli("coxeter", "factor", "--n", "19")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["cyclotomic_part"] == [[2, 1], [5, 1]]
    assert [int(c) for c in report["salem_candidate"]] == PHI_14
    assert report["cyclotomic_orders_divide"] == 1800
    assert "exclusion_prime" not in report
    assert report["irreducible"] is True
    assert report["salem_pattern"]["passed"] is True
    assert report["salem_pattern"]["circle_roots"] == 17
    assert "does not certify" not in report["note"]
    _assert_no_bare_floats(report)


def test_cli_import_leaves_numpy_unloaded(seq19_739, tmp_path):
    # numpy serves only the dense oracle grid, oracle.circle_root_brackets,
    # and no production path loads the oracle module: one interpreter runs
    # every verb below and then has loaded neither
    seq19_739.dump(tmp_path / "seq19.json")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"factors": [{"type": "mcmullen", "n": 19},
                                            {"type": "toric", "fan": "plane"}],
                                "mau": str(tmp_path / "seq19.json")}))
    seq = str(tmp_path / "seq.json")
    runs = [["mau", "build", "--length", "2", "--out", seq],
            ["coxeter", "poly", "--n", "19"],
            ["coxeter", "factor", "--n", "19"],
            ["coxeter", "oracle", "--n", "19"],
            ["mcmullen", "data", "--n", "739"],
            ["mcmullen", "certificate", "--n", "19"],
            ["mau", "audit", seq],
            ["toric", "check", "plane"],
            ["toric", "fixed-points", "plane", "--mau", seq],
            ["product", "classify", str(spec), "--precision", "512"],
            ["product", "entropy", str(spec), "--precision", "512"]]
    runs = [argv if "--out" in argv else [*argv, "--out", str(tmp_path / f"{i}.json")]
            for i, argv in enumerate(runs)]
    script = ("import json, sys\n"
              "from salemforge.cli import main\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    assert main(argv) == 0, argv\n"
              "print('numpy' in sys.modules, 'salemforge.oracle' in sys.modules)")
    res = subprocess.run([sys.executable, "-c", script, json.dumps(runs)],
                         capture_output=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == b"False False"


def test_coxeter_oracle_match():
    res = run_cli("coxeter", "oracle", "--n", "12")
    assert res.returncode == 0
    assert json.loads(res.stdout)["match"] is True


def test_validation_error_exits_1():
    res = run_cli("coxeter", "factor", "--n", "5")
    assert res.returncode == 1
    assert json.loads(res.stdout)["kind"] == "validation"


def test_failed_certificate_exits_2():
    res = run_cli("mcmullen", "certificate", "--n", "20")
    assert res.returncode == 2
    report = json.loads(res.stdout)
    assert report["kind"] == "consistency"
    assert report["report"]["passed"] is False


def test_certificate_with_vanishing_norm_exits_2():
    res = run_cli("mcmullen", "certificate", "--n", "21")   # Phi_3 | E_21
    assert res.returncode == 2
    assert json.loads(res.stdout)["report"]["norm"] == 0


def test_certificate_report_is_small_at_large_n():
    res = run_cli("mcmullen", "certificate", "--n", "3259")
    assert res.returncode == 0 and len(res.stdout) < 1024
    assert json.loads(res.stdout)["passed"] is True


def test_mcmullen_data_at_the_length_6_source():
    t0 = time.monotonic()
    res = run_cli("mcmullen", "data", "--n", "19107739", "--precision", "512")
    assert res.returncode == 0 and time.monotonic() - t0 < 5.0
    report = json.loads(res.stdout)
    assert report["n"] == 19_107_739 and "phi" not in report
    assert report["certificate"]["passed"] is True


def test_mau_build_refuses_past_psi12():
    # the degree bound after length 8 is about 5.3e29, above psi_12
    t0 = time.monotonic()
    res = run_cli("mau", "build", "--length", "10", "--precision", "512")
    assert res.returncode == 1 and time.monotonic() - t0 < 10.0
    report = json.loads(res.stdout)
    assert report["kind"] == "validation"
    assert "psi_12" in report["error"]
    assert "no primality proof" in report["error"]


def test_unknown_flag_exits_64_with_usage():
    res = run_cli("coxeter", "factor", "--n", "19", "--no-such-flag")
    assert res.returncode == 64
    assert b"Usage" in res.stderr


@pytest.mark.parametrize("precision", ["0", "-5"])
def test_non_positive_precision_exits_64(precision):
    res = run_cli("mcmullen", "data", "--n", "19", "--precision", precision)
    assert res.returncode == 64
    assert b"--precision" in res.stderr


def test_chance_relation_at_low_precision_is_a_validation_error():
    res = run_cli("mau", "build", "--length", "2", "--precision", "16")
    assert res.returncode == 1
    report = json.loads(res.stdout)
    assert report["kind"] == "validation"
    assert report["type"] == "PrecisionTooLow"


def test_byte_identical_reruns():
    a = run_cli("mcmullen", "data", "--n", "19")
    b = run_cli("mcmullen", "data", "--n", "19")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_mcmullen_data_reports_do_not_depend_on_call_history(tmp_path):
    """In one process, a report is the same bytes from a cold pair-data
    cache as after the other sign and the other precision at its n, with
    the calls in either order."""
    out = tmp_path / "data.json"

    def report(n, precision, sign):
        assert cli.main(["mcmullen", "data", "--n", str(n), "--precision",
                         str(precision), "--branch", str(sign),
                         "--out", str(out)]) == 0
        return out.read_bytes()

    keys = [(n, precision, sign) for n in (13, 43, 739)
            for precision in (64, 1024) for sign in (1, -1)]
    cold = {}
    for key in keys:
        mcmullen._pair_core.cache_clear()
        cold[key] = report(*key)
    for order in (keys, keys[::-1]):
        mcmullen._pair_core.cache_clear()
        assert {key: report(*key) for key in order} == cold


def test_real_fields_are_strings_with_radius():
    res = run_cli("mcmullen", "data", "--n", "19")
    report = json.loads(res.stdout)
    _assert_no_bare_floats(report)
    assert isinstance(report["entropy"]["mid"], str)
    assert isinstance(report["entropy"]["radius"], str)
    assert isinstance(report["alpha"]["re"], str)
    assert isinstance(report["alpha"]["radius"], str)


def test_precision_env_var_overrides_default():
    res = run_cli("mcmullen", "data", "--n", "19",
                  env_extra={"SALEMFORGE_PRECISION": "128"})
    assert res.returncode == 0
    assert json.loads(res.stdout)["run_config"]["precision_bits"] == 128


def test_out_writes_file_and_keeps_stdout_quiet(tmp_path):
    target = tmp_path / "report.json"
    res = run_cli("coxeter", "poly", "--n", "14", "--out", str(target))
    assert res.returncode == 0
    assert res.stdout == b""
    assert json.loads(target.read_text())["degree"] == 14


def test_toric_check_shipped_fan():
    res = run_cli("toric", "check", "plane")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["smooth"] and report["complete"] and report["N"] == 3


def test_toric_check_bad_fan_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"dim": 2, "max_cones": [[[1, 0], [1, 2]], [[1, 2], [-1, 0]]]}))
    res = run_cli("toric", "check", str(bad))
    assert res.returncode == 2
    assert json.loads(res.stdout)["kind"] == "consistency"


@pytest.fixture(scope="module")
def seq_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "seq.json"
    res = run_cli("mau", "build", "--length", "2", "--precision", "512",
                  "--out", str(path))
    assert res.returncode == 0
    return path


def test_mau_build_then_audit(seq_file):
    res = run_cli("mau", "audit", str(seq_file))
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["outcome"] == "no_relation"
    assert report["stored_precision_bits"] == 512


def test_toric_fixed_points_from_sequence(seq_file):
    res = run_cli("toric", "fixed-points", "plane", "--mau", str(seq_file),
                  "--precision", "512")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["count"] == 3
    _assert_no_bare_floats(report)


_SPEC = {"factors": [{"type": "mcmullen", "n": 19}], "mau": "SEQ"}


class SeqWith(tuple):
    """Stands for the well-formed sequence file with the value at a key
    path replaced: SeqWith((keys, value))."""

    def applied_to(self, seq_file):
        keys, value = self
        data = json.loads(seq_file.read_text())
        node = data
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        return data


@pytest.mark.parametrize("argv, content, key", [
    (["toric", "check"], {"dim": 2}, "max_cones"),
    (["product", "classify"], {"factors": _SPEC["factors"]}, "mau"),
    (["product", "classify"], {**_SPEC, "factors": [{"type": "mcmullen"}]}, "n"),
    (["mau", "audit"], [1, 2], "precision_bits"),
    (["toric", "fixed-points", "plane", "--mau"], _SPEC, "precision_bits"),
    # nested ball objects that lack a key
    (["mau", "audit"], {"precision_bits": 512, "degree_bound": 1, "entries": [
        {"value": {}, "argument_turns": {}, "source_n": 19, "role": "alpha"}]},
     "precision_bits"),
])
def test_malformed_input_file_is_a_validation_error(argv, content, key,
                                                    seq_file, tmp_path):
    # "SEQ" stands for a well-formed sequence file
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content).replace('"SEQ"',
                                                json.dumps(str(seq_file))))
    res = run_cli(*argv, str(path))
    assert res.returncode == 1 and not res.stderr, res.stderr
    report = json.loads(res.stdout)
    assert report["kind"] == "validation"
    assert f"{path}: " in report["error"] and repr(key) in report["error"]


@pytest.mark.parametrize("argv, content", [
    # fans of the wrong shape, under each verb that reads a fan
    (["toric", "check", "IN"], {"dim": 2, "max_cones": [[[1]], [[-1]]]}),
    (["toric", "fixed-points", "IN", "--mau", "SEQ"],
     {"dim": 0, "max_cones": [[]]}),
    (["product", "classify", "SPEC"], {"dim": 2, "max_cones": 5}),
    (["toric", "check", "IN"],
     {"dim": 1, "max_cones": [[[1, 0], [0, 1]], [[-1, 0], [0, 1]]]}),
    (["toric", "check", "IN"], {"dim": 2, "max_cones": [5]}),
    (["toric", "check", "IN"], {"dim": 1, "max_cones": [[[1.5]], [[-1]]]}),
    (["toric", "check", "IN"], {"dim": 1, "max_cones": [[[True]], [[-1]]]}),
    # a number where a list belongs
    (["mau", "audit", "IN"],
     {"precision_bits": 512, "degree_bound": 1, "entries": 5}),
    (["product", "classify", "IN"], {"factors": 5, "mau": "SEQ"}),
    # a value of another JSON kind; a float or a bool is no int
    (["mau", "audit", "IN"], SeqWith((["precision_bits"], [512]))),
    (["mau", "audit", "IN"], SeqWith((["precision_bits"], 512.9))),
    (["mau", "audit", "IN"], SeqWith((["precision_bits"], True))),
    # a ball is parsed at twice its precision, which must be in [1, 2^20]
    (["mau", "audit", "IN"], SeqWith((["precision_bits"], 0))),
    (["mau", "audit", "IN"],
     SeqWith((["entries", 0, "value", "precision_bits"], 1 << 40))),
    (["mau", "audit", "IN"], SeqWith((["degree_bound"], {}))),
    (["mau", "audit", "IN"], SeqWith((["entries", 0, "source_n"], [19]))),
    (["mau", "audit", "IN"],
     SeqWith((["entries", 0, "argument_turns", "mid"], 5))),
    (["mau", "audit", "IN"], SeqWith((["entries", 0, "value", "re"], [1]))),
    (["mau", "audit", "IN"], SeqWith((["entries", 0, "role"], 5))),
    (["mau", "audit", "IN"], SeqWith((["entries", 0], [1]))),
    (["product", "classify", "IN"],
     {"factors": [{"type": "mcmullen", "n": [19]}], "mau": "SEQ"}),
    (["product", "classify", "IN"], {**_SPEC, "mau": 5}),
    # strings mp.mpf would parse that are no ASCII decimals
    (["mau", "audit", "IN"],
     SeqWith((["entries", 0, "argument_turns", "mid"], "1/3"))),
    (["mau", "audit", "IN"],
     SeqWith((["entries", 0, "argument_turns", "radius"], "1_0"))),
    (["mau", "audit", "IN"],
     SeqWith((["entries", 0, "value", "re"], " 1 "))),
    (["mau", "audit", "IN"],     # an Arabic-Indic three
     SeqWith((["entries", 0, "value", "im"], "\u0663"))),
])
def test_malformed_shape_is_a_validation_error(argv, content, seq_file,
                                               tmp_path, capsys):
    # IN is the malformed file; SPEC a product spec with IN as its fan.
    # In process: an exception that escapes main fails the test as a
    # traceback would.
    if isinstance(content, SeqWith):
        content = content.applied_to(seq_file)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content).replace('"SEQ"',
                                                json.dumps(str(seq_file))))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"factors": [{"type": "toric", "fan": str(path)}],
                                "mau": str(seq_file)}))
    files = {"IN": str(path), "SEQ": str(seq_file), "SPEC": str(spec)}
    with pytest.raises(SystemExit) as exit_:
        cli.main([files.get(a, a) for a in argv])
    out, err = capsys.readouterr()
    assert exit_.value.code == 1 and not err, err
    report = json.loads(out)
    assert report["kind"] == "validation"
    assert f"{path}: " in report["error"]


def test_a_stored_audit_is_not_read(seq_file, tmp_path):
    # a sequence's relation_audit is not read, so not even a malformed one
    # is refused: the file loads without it, and mau audit searches afresh
    path, out = tmp_path / "seq.json", tmp_path / "audit.json"
    for keys, value in ((["relation_audit"], {"outcome": "x"}),
                        (["relation_audit", "bound"], [3]),
                        (["relation_audit", "notes"], 5)):
        path.write_text(json.dumps(SeqWith((keys, value)).applied_to(seq_file)))
        assert load_sequence(path).relation_audit is None
        assert cli.main(["mau", "audit", str(path), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["outcome"] == "no_relation"


def test_dependent_toric_coordinates_are_refused_whatever_is_stored(
        seq19_739, tmp_path, capsys):
    # theta_1 = 2 theta_0 mod 1 under a null, a stale no_relation and a
    # foreign stored audit: product classify refuses as toric
    # fixed-points does
    seq = doubled(seq19_739.truncate(2), 0, 1)
    stale = replace(seq19_739.relation_audit, arguments=tuple(seq.arguments()))
    path, spec = tmp_path / "seq.json", tmp_path / "spec.json"
    spec.write_text(json.dumps({"factors": [{"type": "toric", "fan": "p1xp1"}],
                                "mau": str(path)}))
    for audit in (None, stale, seq19_739.relation_audit):
        replace(seq, relation_audit=audit).dump(path)
        stored = json.loads(path.read_text())["relation_audit"]
        assert (stored is None) == (audit is None)
        for argv in (["product", "classify", str(spec)],
                     ["toric", "fixed-points", "p1xp1", "--mau", str(path)]):
            with pytest.raises(SystemExit) as exit_:
                cli.main(argv + ["--precision", "512"])
            report = json.loads(capsys.readouterr().out)
            assert exit_.value.code == 1, argv
            assert report["kind"] == "validation"
            assert report["type"] == "IndependenceEvidenceMissing"


@pytest.mark.parametrize("argv", [
    ["mau", "audit", "DIR"],
    ["mau", "audit", "SEQ", "--out", "DIR"],
    ["toric", "fixed-points", "plane", "--mau", "DIR"],
])
def test_a_directory_for_a_file_is_a_validation_error(argv, seq_file,
                                                      tmp_path, capsys):
    files = {"DIR": str(tmp_path), "SEQ": str(seq_file)}
    with pytest.raises(SystemExit) as exit_:
        cli.main([files.get(a, a) for a in argv])
    out, err = capsys.readouterr()
    assert exit_.value.code == 1 and not err, err
    report = json.loads(out)
    assert report["kind"] == "validation"
    assert report["type"] == "IsADirectoryError"


@pytest.mark.parametrize("radius", ["-1e-100", "-0.4", "nan", "-inf"])
@pytest.mark.parametrize("argv", [
    ["mau", "audit", "IN"],
    ["toric", "fixed-points", "plane", "--mau", "IN"],
    ["product", "classify", "SPEC"],
])
def test_a_dishonest_radius_is_refused(argv, radius, seq_file, tmp_path,
                                       capsys):
    # a ball is [mid - radius, mid + radius]: a negative radius would
    # shrink every bound built on it
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(SeqWith(
        (["entries", 0, "argument_turns", "radius"], radius)
    ).applied_to(seq_file)))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"factors": [{"type": "mcmullen", "n": 739}], "mau": str(path)}))
    files = {"IN": str(path), "SPEC": str(spec)}
    with pytest.raises(SystemExit) as exit_:
        cli.main([files.get(a, a) for a in argv] + ["--precision", "512"])
    out, err = capsys.readouterr()
    assert exit_.value.code == 1 and not err, err
    report = json.loads(out)
    assert report["kind"] == "validation"
    assert f"{path}: " in report["error"] and "radius" in report["error"]


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.decimals().map(str) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


def _key_paths(node, keys=()):
    """The key path of every node of a parsed JSON document; the
    extension certificates, which no reader reads, count as one node."""
    yield keys
    if keys == ("certificates",):
        return
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _key_paths(node[key], keys + (key,))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _key_paths(item, keys + (i,))


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_json_in_a_stored_sequence_ends_in_an_exit_code(
        data, seq_file, tmp_path, capsys):
    # one leaf or subtree of a well-formed sequence replaced by random
    # JSON; in process, so a traceback fails the test
    doc = json.loads(seq_file.read_text())
    keys = data.draw(st.sampled_from(list(_key_paths(doc))))
    value = data.draw(_JSON)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(SeqWith((keys, value)).applied_to(seq_file)
                               if keys else value))
    try:
        code = cli.main(["mau", "audit", str(path), "--precision", "64"])
    except SystemExit as exit_:
        code = exit_.code
    out, err = capsys.readouterr()
    assert code in (0, 1, 2) and not err, err


@pytest.mark.parametrize("bound", ["0", "-3"])
@pytest.mark.parametrize("argv", [
    ["mau", "build", "--length", "2"],
    ["mau", "audit", "SEQ"],
    ["toric", "fixed-points", "plane", "--mau", "SEQ"],
    ["product", "classify", "SPEC"],
])
def test_non_positive_bound_exits_64(argv, bound, seq_file, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**_SPEC, "mau": str(seq_file)}))
    files = {"SEQ": str(seq_file), "SPEC": str(spec)}
    res = run_cli(*(files.get(a, a) for a in argv), "--bound", bound)
    assert res.returncode == 64
    assert b"--bound" in res.stderr


def test_product_classify_refuses_a_repeated_cone(seq19_739, tmp_path):
    # the P^1 fan with the cone [1] twice: three cones, not complete
    fan = tmp_path / "fan.json"
    fan.write_text(json.dumps({"dim": 1, "max_cones": [[[-1]], [[1]], [[1]]]}))
    replace(seq19_739, entries=seq19_739.entries[:3]).dump(tmp_path / "seq.json")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"factors": [{"type": "mcmullen", "n": 19},
                     {"type": "toric", "fan": str(fan)}],
         "mau": str(tmp_path / "seq.json")}))
    check = run_cli("toric", "check", str(fan))
    assert check.returncode == 2
    assert json.loads(check.stdout)["report"]["complete"] is False
    # as for any rejected fan, the spec is invalid input
    res = run_cli("product", "classify", str(spec), "--precision", "512")
    assert res.returncode == 1
    report = json.loads(res.stdout)
    assert report["type"] == "SpecError"
    assert "lies in 3 cones" in report["error"]


def test_product_classify_without_integrality_certificate_exits_2(
        seq19_739, tmp_path):
    # the n = 19 pair relabelled as source 20, whose certificate fails
    pair = tuple(replace(e, source_n=20) for e in seq19_739.entries[:2])
    replace(seq19_739, entries=pair).dump(tmp_path / "seq20.json")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"factors": [{"type": "mcmullen", "n": 20}],
         "mau": str(tmp_path / "seq20.json")}))
    res = run_cli("product", "classify", str(spec), "--precision", "512")
    assert res.returncode == 2
    report = json.loads(res.stdout)
    assert report["kind"] == "consistency"
    assert report["type"] == "IntegralityFailure"


BALL = {"mid", "radius"}
CBALL = {"re", "im", "radius", "precision_bits"}
RUN_CONFIG = {"precision_bits", "relation_bound", "output"}
AUDIT = {"arguments", "bound", "precision_bits", "outcome", "exponents",
         "residual", "gap", "notes"}
INTEGRALITY = {"n", "a", "b", "norm", "checks", "passed"}


def test_report_key_sets(seq_file, tmp_path):
    # every report object is its dataclass fields by name; these are the
    # keys a serialiser change could add or drop
    def report(*args):
        res = run_cli(*args)
        assert res.returncode == 0, res.stdout
        return json.loads(res.stdout)

    data = report("mcmullen", "data", "--n", "19", "--precision", "128")
    assert set(data) == {
        "n", "delta", "branch_sign", "alpha", "beta", "s", "a_of_delta",
        "siegel_root", "delta_prime", "alpha_prime", "beta_prime", "entropy",
        "certificate", "precision_bits", "alpha_arg_turns", "beta_arg_turns",
        "ratio_prime", "run_config"}
    assert set(data["delta"]) == {"theta", "delta", "index"}
    assert set(data["alpha"]) == CBALL and set(data["entropy"]) == BALL
    assert set(data["certificate"]) == INTEGRALITY

    cert = report("mcmullen", "certificate", "--n", "3259")
    assert set(cert) == INTEGRALITY | {"run_config"}
    assert set(cert["run_config"]) == RUN_CONFIG

    built = json.loads(seq_file.read_text())
    assert set(built) == {"entries", "degree_bound", "certificates",
                          "relation_audit", "precision_bits", "run_config"}
    assert set(built["entries"][0]) == {"value", "argument_turns",
                                        "source_n", "role"}
    assert set(built["certificates"][0]) == {
        "k", "n", "q", "primality_witness", "degree_bound_before",
        "q_exceeds_bound", "deg_phi", "deg_r", "cyclotomic_degree",
        "siegel_witness_theta", "nonsiegel_witness_theta",
        "nonsiegel_ratio", "integrality", "note"}
    assert set(built["certificates"][0]["integrality"]) == INTEGRALITY
    assert set(built["relation_audit"]) == AUDIT

    audit = report("mau", "audit", str(seq_file))
    assert set(audit) == AUDIT | {"stored_precision_bits", "run_config"}

    fan = report("toric", "check", "p1xp1")
    assert set(fan) == {"dim", "n_cones", "passed", "failures", "cone_dets",
                        "n_facets", "smooth", "complete", "N", "run_config"}

    toric = report("toric", "fixed-points", "plane", "--mau", str(seq_file))
    assert set(toric) == {"fan", "element", "audit", "fixed_points", "count",
                          "run_config"}
    assert set(toric["element"]) == {"dim", "arguments", "provenance"}
    assert set(toric["fixed_points"][0]) == {"cone_index", "dual_basis",
                                             "eigenvalue_arguments"}
    assert set(toric["audit"]) == AUDIT

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"factors": [{"type": "mcmullen", "n": 739}], "mau": str(seq_file)}))
    product = report("product", "classify", str(spec), "--precision", "512")
    for fp in product["fixed_points"]:
        assert set(fp) == {"address", "eigenvalue_arguments", "contains_p",
                           "classification", "evidence"}


def test_product_classify_spec_file(seq_file, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"factors": [{"type": "mcmullen", "n": 739}],
         "mau": str(seq_file)}))
    res = run_cli("product", "classify", str(spec), "--precision", "512")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["siegel_count"] == 1
    assert report["undetermined"] == []
    assert len(report["fixed_points"]) == 2
    _assert_no_bare_floats(report)
