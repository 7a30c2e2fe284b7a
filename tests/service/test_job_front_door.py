"""One job front door: every entry point gives the same result bytes.

The same (kind, params, seed) runs as a campaign job persisted by
``RunStore``, as a ``POST /v1/jobs`` request, and (for ``fleet``) as the
CLI's ``fleet --out`` file; ``json.dumps(..., sort_keys=True)`` of the
three must be byte-equal.
"""

import json
import time

import pytest

from repro.campaign.scheduler import CampaignScheduler
from repro.campaign.spec import campaign_from_dict
from repro.campaign.store import RunStore
from repro.cli import main
from repro.service.app import ServiceConfig, ServiceRunner
from repro.service.client import ServiceClient

CASES = {
    "bler_mc": ({"cers": [3e-3, 2e-2], "n_blocks": 300}, 11),
    "fleet": ({"n_devices": 12, "n_epochs": 2, "preset": "stress"}, 5),
}


def _canonical(result: dict) -> str:
    return json.dumps(result, sort_keys=True)


def _campaign_result(kind: str, params: dict, seed: int, run_dir) -> str:
    job = {"id": "j", "kind": kind, "params": params}
    spec = campaign_from_dict({"name": "front-door", "seed": seed, "job": [job]})
    store = RunStore(run_dir)
    assert CampaignScheduler(spec, store).run().ok
    return _canonical(store.read_result("j"))


def _service_result(base_url: str, kind: str, params: dict, seed: int) -> str:
    with ServiceClient(base_url) as c:
        job_id = c.submit_job(kind, seed=seed, **params)["job_id"]
        deadline = time.monotonic() + 60.0
        while (job := c.get_job(job_id))["state"] not in ("done", "failed"):
            assert time.monotonic() < deadline, "job did not settle"
            time.sleep(0.05)
    assert job["state"] == "done", job.get("error")
    return _canonical(job["result"])


@pytest.fixture(scope="module")
def server():
    runner = ServiceRunner(ServiceConfig(port=0))
    runner.start()
    yield runner
    runner.stop()


@pytest.mark.parametrize("kind", sorted(CASES))
def test_campaign_and_service_results_are_byte_equal(kind, server, tmp_path):
    params, seed = CASES[kind]
    assert _campaign_result(kind, params, seed, tmp_path / "run") == _service_result(
        server.base_url, kind, params, seed
    )


def test_cli_fleet_out_matches_campaign_and_service(server, tmp_path, capsys):
    params, seed = CASES["fleet"]
    out = tmp_path / "fleet.json"
    rc = main(
        [
            "fleet", "--devices", str(params["n_devices"]),
            "--epochs", str(params["n_epochs"]), "--preset", params["preset"],
            "--seed", str(seed), "--no-cache", "--out", str(out),
        ]
    )
    assert rc == 0, capsys.readouterr().err
    cli = json.loads(out.read_text())
    cli["n_samples"] = params["n_devices"] * params["n_epochs"]
    campaign = _campaign_result("fleet", params, seed, tmp_path / "run")
    assert _canonical(cli) == campaign
    assert campaign == _service_result(server.base_url, "fleet", params, seed)
