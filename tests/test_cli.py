import io
import json
import sys

import pytest

from rigidity_lab import exact_linalg, local_systems
from rigidity_lab.catalog import CATALOG_ENV_VAR, load_catalog
from rigidity_lab.cli import CampaignConfig, main, run_campaign


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


RANK1_TWOPOINT = {
    "rank": 1,
    "finite_points": [
        {"location": "0", "matrix": [["2"]]},
        {"location": "1", "matrix": [["3"]]},
    ],
}

REDUCIBLE_DIAGONAL = {
    "rank": 2,
    "finite_points": [
        {"location": "0", "matrix": [["2", "0"], ["0", "3"]]},
        {"location": "1", "matrix": [["5", "0"], ["0", "7"]]},
    ],
}

# rank 2 on three finite points plus infinity, irreducible, index 0
FOURPOINT2 = {
    "rank": 2,
    "finite_points": [
        {"location": "0", "matrix": [["2", "0"], ["0", "1"]]},
        {"location": "1", "matrix": [["1", "1"], ["1", "0"]]},
        {"location": "2", "matrix": [["1", "1"], ["0", "1"]]},
    ],
}

NON_REALIZABLE = {
    "rank": 2,
    "finite_points": [{"location": "0", "matrix": [["1", "1"], ["0", "1"]]}],
}


class TestRig:
    def test_worked_example(self, capsys, tmp_path):
        path = write_json(tmp_path, "t.json", RANK1_TWOPOINT)
        code, out, _ = run_cli(capsys, "rig", "--input", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["index"] == 2
        assert payload["physically_rigid"] is True
        assert payload["centralizer_dims"] == [1, 1, 1]

    def test_validation_error_exit_2(self, capsys, tmp_path):
        bad = dict(RANK1_TWOPOINT, infinity_matrix=[["5"]])
        path = write_json(tmp_path, "bad.json", bad)
        code, _, err = run_cli(capsys, "rig", "--input", path)
        assert code == 2
        assert "monodromy relation violated" in err

    def test_malformed_json_exit_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run_cli(capsys, "rig", "--input", str(path))
        assert code == 2
        assert "malformed JSON" in err

    def test_schema_violation_exit_2(self, capsys, tmp_path):
        path = write_json(tmp_path, "schema.json", {"rank": 1, "finite_points": []})
        code, _, err = run_cli(capsys, "rig", "--input", str(path))
        assert code == 2
        assert "schema violation" in err

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "rig", "--input", str(tmp_path / "absent.json"))
        assert code == 2
        assert "cannot read input file" in err

    def test_text_format(self, capsys, tmp_path):
        path = write_json(tmp_path, "t.json", RANK1_TWOPOINT)
        code, out, _ = run_cli(capsys, "rig", "--input", path, "--format", "text")
        assert code == 0
        assert "rigidity index: 2" in out
        assert "physically rigid: yes" in out

    @pytest.mark.parametrize("field", ["location", "matrix"])
    @pytest.mark.parametrize("value", ["1.5", "1e30", "1_000", " 3 ", True, 2.0, "1/0", "0x10"])
    def test_rationals_outside_the_grammar_exit_2(self, capsys, tmp_path, field, value):
        point = {"location": "0", "matrix": [["2"]]}
        point[field] = [[value]] if field == "matrix" else value
        path = write_json(tmp_path, "bad.json", {"rank": 1, "finite_points": [point]})
        code, _, err = run_cli(capsys, "rig", "--input", path)
        assert code == 2
        assert "schema violation" in err


class TestFourier:
    def test_worked_example(self, capsys, tmp_path):
        path = write_json(tmp_path, "t.json", RANK1_TWOPOINT)
        code, out, _ = run_cli(capsys, "fourier", "--input", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["rank_hat"] == 2
        assert payload["irregularity"] == 2
        assert [c["dimension"] for c in payload["components"]] == [1, 1]
        assert [c["exp_coefficient"] for c in payload["components"]] == ["0", "1"]
        assert all("centralizer_dim" in c for c in payload["components"])
        assert payload["zero_invariant_factors"]
        assert "warning" not in payload

    def test_reducible_still_prints_with_warning(self, capsys, tmp_path):
        path = write_json(tmp_path, "red.json", REDUCIBLE_DIAGONAL)
        code, out, _ = run_cli(capsys, "fourier", "--input", path)
        assert code == 0
        payload = json.loads(out)
        assert "warning" in payload
        assert payload["rank_hat"] == 4

    def test_non_realizable_exit_3(self, capsys, tmp_path):
        path = write_json(tmp_path, "nr.json", NON_REALIZABLE)
        code, _, err = run_cli(capsys, "fourier", "--input", path)
        assert code == 3
        assert "non-realizable" in err

    def test_text_format(self, capsys, tmp_path):
        path = write_json(tmp_path, "t.json", RANK1_TWOPOINT)
        code, out, _ = run_cli(capsys, "fourier", "--input", path, "--format", "text")
        assert code == 0
        assert "irregularity at infinity: 2" in out


class TestVerify:
    def test_single_tuple(self, capsys, tmp_path):
        path = write_json(tmp_path, "t.json", RANK1_TWOPOINT)
        code, out, _ = run_cli(capsys, "verify", "--input", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["equal"] is True
        assert payload["rig_source"] == payload["rig_fourier"] == 2

    def test_reducible_exit_4(self, capsys, tmp_path):
        path = write_json(tmp_path, "red.json", REDUCIBLE_DIAGONAL)
        code, _, err = run_cli(capsys, "verify", "--input", path)
        assert code == 4
        assert "theorem hypothesis violated" in err

    def test_force_prints_report(self, capsys, tmp_path):
        path = write_json(tmp_path, "red.json", REDUCIBLE_DIAGONAL)
        code, out, _ = run_cli(capsys, "verify", "--input", path, "--force")
        assert code == 0
        payload = json.loads(out)
        assert "warning" in payload
        assert "rig_source" in payload and "rig_fourier" in payload

    def test_campaign(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--random",
            "--trials",
            "20",
            "--max-rank",
            "3",
            "--max-points",
            "3",
            "--seed",
            "11",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {"trials_run": 20, "all_equal": True, "failures": []}

    def test_campaign_deterministic(self, capsys):
        argv = ["verify", "--random", "--trials", "5", "--seed", "3"]
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert (code1, out1) == (code2, out2)

    def test_needs_input_or_random(self, capsys):
        code, _, err = run_cli(capsys, "verify")
        assert code == 2
        assert "--input" in err

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(RANK1_TWOPOINT)))
        code, out, _ = run_cli(capsys, "verify", "--input", "-")
        assert code == 0
        assert json.loads(out)["equal"] is True


class TestCatalog:
    def test_list_has_required_entries(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "list")
        assert code == 0
        payload = json.loads(out)
        names = {e["name"] for e in payload}
        assert len(payload) >= 4
        assert {"kummer", "rank1_twopoint", "hypergeometric2", "nonrigid4"} <= names

    def test_expectations_recomputed(self):
        for entry in load_catalog().values():
            # load already recomputes; spot-check the stored values
            assert isinstance(entry.expected_index, int)

    def test_show_roundtrips_through_rig(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "catalog", "show", "kummer")
        assert code == 0
        path = tmp_path / "kummer.json"
        path.write_text(out, encoding="utf-8")
        code, out2, _ = run_cli(capsys, "rig", "--input", str(path))
        assert code == 0
        assert json.loads(out2)["index"] == 2

    def test_show_hypergeometric2(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "catalog", "show", "hypergeometric2")
        assert code == 0
        path = tmp_path / "h2.json"
        path.write_text(out, encoding="utf-8")
        code, out2, _ = run_cli(capsys, "rig", "--input", str(path))
        assert code == 0
        payload = json.loads(out2)
        assert payload["index"] == 2 and payload["physically_rigid"] is True

    def test_unknown_name_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "catalog", "show", "nope")
        assert code == 2
        assert "unknown catalog entry" in err

    def test_show_needs_name(self, capsys):
        code, _, err = run_cli(capsys, "catalog", "show")
        assert code == 2
        assert "needs an entry name" in err

    def test_external_catalog(self, capsys, tmp_path, monkeypatch):
        payload = dict(RANK1_TWOPOINT, description="external example")
        write_json(tmp_path, "extra.json", payload)
        monkeypatch.setenv(CATALOG_ENV_VAR, str(tmp_path))
        code, out, _ = run_cli(capsys, "catalog", "list")
        assert code == 0
        entries = {e["name"]: e for e in json.loads(out)}
        assert entries["extra"]["expected_index"] == 2
        assert entries["extra"]["description"] == "external example"

    def test_external_catalog_wrong_expectation(self, tmp_path, monkeypatch):
        payload = dict(RANK1_TWOPOINT, expected_index=7)
        write_json(tmp_path, "liar.json", payload)
        monkeypatch.setenv(CATALOG_ENV_VAR, str(tmp_path))
        from rigidity_lab.errors import CatalogError

        with pytest.raises(CatalogError, match="expected_index"):
            load_catalog()

    def test_list_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "list", "--format", "text")
        assert code == 0
        assert "kummer" in out


class TestArguments:
    @pytest.mark.parametrize("flag", ["--trials", "--max-rank", "--max-points"])
    @pytest.mark.parametrize("value", ["0", "-1", "x"])
    def test_campaign_sizes_must_be_positive(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--random", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "positive integer" in err


def count_calls(monkeypatch, module, name):
    """Record the calls to ``module.name`` made under any name in the library."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module_name, loaded in list(sys.modules.items()):
        if module_name.split(".")[0] == "rigidity_lab":
            for key, value in list(vars(loaded).items()):
                if value is original:
                    monkeypatch.setattr(loaded, key, counting)
    return calls


class TestComputeOnce:
    # (command, centralizer calls, restrictions to im(A - 1)) for k finite
    # points: rig needs the k + 1 source matrices and nothing of the
    # transform; fourier the k components, each restricted once, plus the
    # zero monodromy's self-check; verify every matrix role once.
    @pytest.mark.parametrize(
        "command, centralizers, restrictions",
        [("rig", 4, 0), ("fourier", 3, 4), ("verify", 8, 4)],
    )
    def test_single_tuple_op(
        self, capsys, tmp_path, monkeypatch, command, centralizers, restrictions
    ):
        path = write_json(tmp_path, "t.json", FOURPOINT2)
        validate = count_calls(monkeypatch, local_systems, "validate")
        closure = count_calls(monkeypatch, exact_linalg, "spans_full_algebra")
        centralizer = count_calls(monkeypatch, exact_linalg, "centralizer_dimension")
        restrict = count_calls(monkeypatch, exact_linalg, "restrict_to_image")
        code, _, _ = run_cli(capsys, command, "--input", path)
        assert code == 0
        assert (len(validate), len(closure)) == (1, 1)
        assert len(centralizer) == centralizers
        assert len(restrict) == restrictions

    def test_campaign_draw(self, capsys, monkeypatch):
        draws = count_calls(monkeypatch, local_systems, "random_tuple")
        validate = count_calls(monkeypatch, local_systems, "validate")
        closure = count_calls(monkeypatch, exact_linalg, "spans_full_algebra")
        code, _, _ = run_cli(capsys, "verify", "--random", "--trials", "10", "--seed", "5")
        assert code == 0
        assert len(validate) == len(closure) == len(draws) >= 10


class TestCampaignInternals:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig(trials=0, max_rank=1, max_points=1, seed=0)

    def test_identity_checks_counted(self):
        result = run_campaign(CampaignConfig(trials=5, max_rank=2, max_points=2, seed=1))
        assert result.trials_run == 5
        assert result.all_equal
        # each trial checks every finite point, infinity, and the kernel rule
        assert result.identity_checks >= 5 * 3
