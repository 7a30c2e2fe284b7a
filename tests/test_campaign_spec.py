"""Campaign spec validation and DAG planning."""

import pathlib

import pytest

from repro.campaign.jobs import DEFAULT_KEYS, KINDS
from repro.campaign.plan import build_plan
from repro.campaign.spec import (
    BUILTIN_CAMPAIGNS,
    SpecError,
    builtin_campaign,
    campaign_from_dict,
    campaign_from_toml,
)


def _spec_dict(**over):
    d = {
        "name": "t",
        "job": [
            {"id": "a", "kind": "capacity"},
            {"id": "b", "kind": "capacity", "needs": ["a"]},
        ],
    }
    d.update(over)
    return d


class TestSpecValidation:
    def test_minimal_round_trip(self):
        spec = campaign_from_dict(_spec_dict())
        assert campaign_from_dict(spec.to_dict()) == spec

    def test_duplicate_job_id_rejected(self):
        d = _spec_dict(job=[{"id": "a", "kind": "capacity"}] * 2)
        with pytest.raises(SpecError, match="duplicate"):
            campaign_from_dict(d)

    def test_unknown_kind_rejected(self):
        d = _spec_dict(job=[{"id": "a", "kind": "frobnicate"}])
        with pytest.raises(SpecError, match="unknown kind"):
            campaign_from_dict(d)

    def test_unknown_spec_key_rejected(self):
        with pytest.raises(SpecError, match="unknown campaign key"):
            campaign_from_dict(_spec_dict(retrys=3))

    def test_unknown_job_key_rejected(self):
        d = _spec_dict(job=[{"id": "a", "kind": "capacity", "need": ["x"]}])
        with pytest.raises(SpecError, match="unknown key"):
            campaign_from_dict(d)

    def test_empty_jobs_rejected(self):
        with pytest.raises(SpecError, match="no jobs"):
            campaign_from_dict(_spec_dict(job=[]))

    def test_negative_retries_rejected(self):
        d = _spec_dict(job=[{"id": "a", "kind": "capacity", "retries": -1}])
        with pytest.raises(SpecError, match="retries"):
            campaign_from_dict(d)

    def test_toml_round_trip(self, tmp_path):
        path = tmp_path / "c.toml"
        path.write_text(
            """
            name = "from-toml"
            seed = 7

            [defaults]
            n_samples = 1000

            [[job]]
            id = "cer"
            kind = "design_cer"
            [job.params]
            design = "4LCn"

            [[job]]
            id = "ret"
            kind = "retention"
            needs = ["cer"]
            [job.params]
            design = "4LCn"
            n_cells = 306
            """
        )
        spec = campaign_from_toml(path)
        assert spec.name == "from-toml"
        assert spec.seed == 7
        assert spec.job("ret").needs == ("cer",)
        assert spec.job("cer").params["design"] == "4LCn"


def _one_job(kind, params, **over):
    return _spec_dict(job=[{"id": "a", "kind": kind, "params": params}], **over)


class TestParamsCheckedAtLoad:
    """A bad param is a SpecError at load, never a mid-run failure."""

    def test_typod_param_key(self):
        d = _one_job("fleet", {"n_devices": 8, "presett": "stress"})
        with pytest.raises(SpecError, match=r"unknown param\(s\) \['presett'\]"):
            campaign_from_dict(d)

    def test_wrong_type(self):
        d = _one_job("bler_mc", {"cers": [0.5], "n_blocks": "ten"})
        with pytest.raises(SpecError, match="'n_blocks' must be int"):
            campaign_from_dict(d)

    @pytest.mark.parametrize(
        "kind, params, match",
        [
            ("bler_mc", {"cers": [1.5]}, "'cers' must be <= 1.0"),
            ("bler_mc", {"cers": [1e-3] * 65}, "at most 64"),
            ("bler_mc", {"n_blocks": 10_000_001}, "'n_blocks' must be <="),
            ("fleet", {"n_devices": 200_001}, "'n_devices' must be <="),
            ("fleet", {"n_devices": -5}, "n_devices must be >= 1"),
            ("fleet", {"write_fraction": 2.0}, "write_fraction"),
            ("fleet", {"preset": "stres"}, "unknown fleet preset"),
            ("fleet", {"n_blocks": 17}, "'n_blocks' must be <="),
            ("fleet", {"ops_per_epoch": 65}, "'ops_per_epoch' must be <="),
            ("bler_mc", {"data_bits": 10**9}, "does not fit"),
            ("bler_mc", {"n_spare_pairs": 10**9}, "does not fit"),
            ("state_cer", {"design": "3LCo", "state_index": 2}, "drifting state"),
            ("state_cer", {"design": "4LCn", "state_index": 7}, "drifting state"),
            ("design_cer", {"design": "7LC"}, "unknown design"),
            ("mapping_opt", {"n_levels": 9}, "do not fit"),
        ],
    )
    def test_out_of_bound_value(self, kind, params, match):
        with pytest.raises(SpecError, match=match):
            campaign_from_dict(_one_job(kind, params))

    def test_missing_required_param(self):
        with pytest.raises(SpecError, match="needs param 'n_cells'"):
            campaign_from_dict(_one_job("retention", {"design": "3LCo"}))

    def test_design_or_design_from(self):
        with pytest.raises(SpecError, match="exactly one"):
            campaign_from_dict(_one_job("design_cer", {}))

    def test_unknown_defaults_key(self):
        d = _spec_dict(defaults={"n_sample": 1000})
        with pytest.raises(SpecError, match="unknown defaults key"):
            campaign_from_dict(d)

    def test_bad_value_through_defaults(self):
        d = _one_job("bler_mc", {}, defaults={"n_samples": 0})
        with pytest.raises(SpecError, match="'n_blocks' must be >= 1"):
            campaign_from_dict(d)

    def test_spec_keeps_params_as_written(self):
        spec = campaign_from_dict(_one_job("fleet", {"n_devices": 8}))
        assert dict(spec.job("a").params) == {"n_devices": 8}


class TestDocs:
    def test_every_kind_and_param_is_documented(self):
        # docs/CAMPAIGNS.md has one params-table row per kind, naming
        # each of its declared params.
        text = (
            pathlib.Path(__file__).resolve().parents[1] / "docs" / "CAMPAIGNS.md"
        ).read_text()
        rows = {
            line.split("|")[1].strip(): line
            for line in text.splitlines()
            if line.startswith("| `")
        }
        for name, kind in KINDS.items():
            row = rows[f"`{name}`"]
            for param in kind.params:
                assert f"`{param.name}`" in row, (name, param.name)
        for key in DEFAULT_KEYS:
            assert f"`{key}`" in text, key


class TestPlan:
    def test_topological_order(self):
        spec = campaign_from_dict(_spec_dict())
        plan = build_plan(spec)
        assert plan.order.index("a") < plan.order.index("b")

    def test_deterministic_order(self):
        d = _spec_dict(
            job=[
                {"id": "z", "kind": "capacity"},
                {"id": "a", "kind": "capacity"},
                {"id": "m", "kind": "capacity", "needs": ["z", "a"]},
            ]
        )
        orders = {build_plan(campaign_from_dict(d)).order for _ in range(5)}
        assert orders == {("a", "z", "m")}

    def test_design_from_is_an_implicit_edge(self):
        d = _spec_dict(
            job=[
                {"id": "opt", "kind": "mapping_opt", "params": {"n_levels": 3}},
                {
                    "id": "cer",
                    "kind": "design_cer",
                    "params": {"design_from": "opt"},
                },
            ]
        )
        plan = build_plan(campaign_from_dict(d))
        assert plan.needs["cer"] == ("opt",)
        assert plan.dependents["opt"] == ("cer",)

    def test_unknown_dependency_rejected(self):
        d = _spec_dict(job=[{"id": "a", "kind": "capacity", "needs": ["ghost"]}])
        with pytest.raises(SpecError, match="unknown job"):
            build_plan(campaign_from_dict(d))

    def test_cycle_rejected(self):
        d = _spec_dict(
            job=[
                {"id": "a", "kind": "capacity", "needs": ["b"]},
                {"id": "b", "kind": "capacity", "needs": ["a"]},
            ]
        )
        with pytest.raises(SpecError, match="cycle"):
            build_plan(campaign_from_dict(d))

    def test_self_dependency_rejected(self):
        d = _spec_dict(job=[{"id": "a", "kind": "capacity", "needs": ["a"]}])
        with pytest.raises(SpecError, match="itself"):
            build_plan(campaign_from_dict(d))

    def test_transitive_dependents(self):
        d = _spec_dict(
            job=[
                {"id": "a", "kind": "capacity"},
                {"id": "b", "kind": "capacity", "needs": ["a"]},
                {"id": "c", "kind": "capacity", "needs": ["b"]},
                {"id": "x", "kind": "capacity"},
            ]
        )
        plan = build_plan(campaign_from_dict(d))
        assert plan.transitive_dependents("a") == ("b", "c")
        assert plan.transitive_dependents("x") == ()


class TestBuiltins:
    @pytest.mark.parametrize("name", sorted(BUILTIN_CAMPAIGNS))
    def test_all_builtins_plan(self, name):
        plan = build_plan(builtin_campaign(name))
        assert len(plan.order) >= 1

    def test_sample_and_seed_overrides(self):
        spec = builtin_campaign("fig3_fig8", n_samples=1234, seed=9)
        assert spec.defaults["n_samples"] == 1234
        assert spec.seed == 9

    def test_unknown_builtin(self):
        with pytest.raises(SpecError, match="unknown built-in"):
            builtin_campaign("nope")

    def test_retention_chain_wires_mapping_into_cer(self):
        plan = build_plan(builtin_campaign("retention"))
        assert "mapping-3lc" in plan.needs["cer-3lc"]
        assert set(plan.needs["retention-3lc"]) == {"cer-3lc", "mapping-3lc"}
