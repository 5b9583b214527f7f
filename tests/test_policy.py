"""Tests of the typed :class:`~repro.facade.policy.ExecutionPolicy` redesign.

Covers the policy value itself (validation, override extraction), its
acceptance by :meth:`Session.plan`/:meth:`Session.solve`, the equivalence
and deprecation of the legacy keyword spelling, the warning-free bare-key
spelling of :meth:`Session.solve_many` mapping requests, and the
backward-compatible plan serialisation (plan files that still carry a
``"dispatch"`` key load and replay unchanged; a plan naming the retired
``pipelined`` backend is a typed usage error).
"""

import json
import warnings

import numpy as np
import pytest

from repro import ExecutionPolicy, Session
from repro.cli import main as cli_main
from repro.core.exceptions import (
    InvalidParameterError,
    UnknownExecutorError,
    UsageError,
)
from repro.core.params import TunableParams
from repro.facade.plan import ResolvedPlan, load_plan, save_plan

#: A plan file as the format wrote it while plans carried a tile-dispatch
#: field (format version 1, ``"dispatch": "barrier"``).
DISPATCH_ERA_PLAN = {
    "app": "lcs",
    "app_kwargs": {},
    "backend": "mp-parallel",
    "dim": 24,
    "dispatch": "barrier",
    "engine": None,
    "expected_s": None,
    "format_version": 1,
    "params": {"dim": 24, "dsize": 0, "tsize": 0.5},
    "system": "local",
    "tunables": {"band": -1, "cpu_tile": 8, "gpu_count": 0, "gpu_tile": 1, "halo": -1},
    "tuner": "manual",
    "workers": 2,
}

#: Result-cache digests computed by the code that still had a dispatch
#: field: dropping the field must not move any persisted cache entry.
CACHE_DIGESTS = {
    ("lcs", 32, None): "a820a9b98c4878b2c9aac571dd0974318384e54befed1d25002fca8f209280a4",
    ("edit-distance", 24, "serial"): (
        "3ba2b43c8a49ece9f27dc9875d880f8f7c8c61440ba136c6fbf6eb7ae436f9a9"
    ),
}


class TestPolicyValue:
    def test_default_policy_is_default(self):
        policy = ExecutionPolicy()
        assert policy.is_default
        assert policy.overrides() == {}

    def test_overrides_lists_only_set_fields(self):
        policy = ExecutionPolicy(backend="serial", workers=2)
        assert policy.overrides() == {"backend": "serial", "workers": 2}
        assert not policy.is_default

    def test_nonpositive_workers_rejected(self):
        with pytest.raises(InvalidParameterError, match="workers"):
            ExecutionPolicy(workers=0)


class TestSessionAcceptance:
    def test_policy_and_legacy_kwargs_resolve_identically(self):
        with Session() as session:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                legacy = session.plan(
                    "lcs", 32, backend="serial", tunables=TunableParams()
                )
            modern = session.plan(
                "lcs",
                32,
                policy=ExecutionPolicy(backend="serial", tunables=TunableParams()),
            )
            assert legacy.backend == modern.backend
            assert legacy.tunables == modern.tunables
            assert legacy.workers == modern.workers

    def test_legacy_kwargs_warn(self):
        with Session() as session:
            with pytest.warns(DeprecationWarning, match="policy=ExecutionPolicy"):
                session.plan("lcs", 32, backend="serial")

    def test_both_spellings_is_a_usage_error(self):
        with Session() as session:
            with pytest.raises(UsageError, match="not both"):
                session.plan(
                    "lcs", 32, policy=ExecutionPolicy(backend="serial"), workers=2
                )

    def test_policy_mp_parallel_reaches_plan_and_execution(self):
        with Session(workers=2) as session:
            policy = ExecutionPolicy(
                backend="mp-parallel", tunables=TunableParams(cpu_tile=8)
            )
            plan = session.plan("lcs", 32, policy=policy)
            assert plan.backend == "mp-parallel"
            result = session.run(plan)
            assert result.stats["mode"] == "process-pool"
            reference = session.run(
                session.plan("lcs", 32, policy=ExecutionPolicy(backend="serial"))
            )
            assert np.array_equal(reference.grid.values, result.grid.values)

    def test_distinct_policies_are_distinct_plan_cache_entries(self):
        with Session() as session:
            manual = ExecutionPolicy(backend="mp-parallel", tunables=TunableParams())
            single = session.plan("lcs", 32, policy=manual)
            pair = session.plan(
                "lcs",
                32,
                policy=ExecutionPolicy(
                    backend="mp-parallel", tunables=TunableParams(), workers=2
                ),
            )
            assert single.workers == 1
            assert pair.workers == 2
            assert session.plan("lcs", 32, policy=manual) is single


class TestSolveManyMappings:
    """Bare override keys of mapping requests are the wire format, not legacy."""

    def test_bare_keys_emit_no_deprecation_warning(self):
        with Session() as session, warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            (result,) = session.solve_many(
                [{"app": "lcs", "dim": 16, "backend": "serial"}]
            )
            assert result.stats["strategy"] == "serial"

    def test_bare_keys_share_the_policy_cache_key(self, tmp_path):
        with Session(cache_dir=tmp_path) as session, warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            session.solve_many([{"app": "lcs", "dim": 16, "backend": "serial"}])
            assert session.result_cache.misses == 1
            session.solve("lcs", 16, policy=ExecutionPolicy(backend="serial"))
            assert session.result_cache.misses == 1
            assert session.result_cache.memory_hits == 1

    def test_bare_keys_and_policy_together_is_a_usage_error(self):
        with Session() as session:
            with pytest.raises(UsageError, match="not both"):
                session.solve_many(
                    [
                        {
                            "app": "lcs",
                            "dim": 16,
                            "backend": "serial",
                            "policy": ExecutionPolicy(workers=2),
                        }
                    ]
                )


class TestCacheKeyStability:
    @pytest.mark.parametrize("app,dim,backend", sorted(CACHE_DIGESTS))
    def test_result_cache_keys_unchanged(self, app, dim, backend, tmp_path):
        policy = ExecutionPolicy(backend=backend) if backend else None
        kwargs = {"policy": policy} if policy else {}
        with Session(cache_dir=tmp_path) as session:
            plan = session.plan(app, dim, **kwargs)
            key = session._request_key_for(app, plan, None, kwargs)
        assert key.digest == CACHE_DIGESTS[(app, dim, backend)]


class TestPlanSerialisation:
    def test_round_trip_writes_no_dispatch_key(self, tmp_path):
        with Session() as session:
            plan = session.plan(
                "lcs",
                32,
                policy=ExecutionPolicy(
                    backend="mp-parallel", tunables=TunableParams(cpu_tile=8)
                ),
            )
            path = save_plan(plan, tmp_path / "plan.json")
            assert "dispatch" not in plan.to_dict()
            assert load_plan(path) == plan.with_(problem=None)

    @pytest.mark.parametrize("dispatch", ["barrier", "pipelined"])
    def test_dispatch_era_plan_dict_loads(self, dispatch):
        payload = dict(DISPATCH_ERA_PLAN, dispatch=dispatch)
        loaded = ResolvedPlan.from_dict(payload)
        assert loaded.backend == "mp-parallel"
        assert loaded.workers == 2
        assert loaded.to_dict() == {
            k: v for k, v in DISPATCH_ERA_PLAN.items() if k != "dispatch"
        }

    def test_dispatch_era_plan_file_replays(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(DISPATCH_ERA_PLAN), encoding="utf-8")
        with Session(workers=2) as fresh:
            result = fresh.run(load_plan(path))
            reference = fresh.solve(
                "lcs", 24, policy=ExecutionPolicy(backend="serial")
            )
        assert result.stats["mode"] == "process-pool"
        assert result.matches(reference)

    def test_retired_pipelined_backend_is_a_typed_error(self, tmp_path):
        payload = dict(DISPATCH_ERA_PLAN, backend="pipelined", dispatch="pipelined")
        with Session(workers=2) as session:
            with pytest.raises(UnknownExecutorError, match="pipelined"):
                session.run(ResolvedPlan.from_dict(payload))
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert cli_main(["run", "--replay", str(path)]) == 2

    def test_describe_never_mentions_dispatch(self):
        from repro.core.params import InputParams

        plan = ResolvedPlan(
            app="lcs",
            dim=32,
            params=InputParams(dim=32, tsize=0.5, dsize=0),
            tunables=TunableParams(),
            backend="mp-parallel",
            system="local",
            workers=2,
        )
        assert "dispatch" not in plan.describe()
