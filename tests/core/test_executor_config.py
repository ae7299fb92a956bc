"""ExecutorConfig: backend enum, validation, value-object behaviour."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.core import BACKENDS, ExecutorConfig
from repro.core.execution import (
    BACKEND_ENV_VAR,
    BACKEND_PYTHON,
    BACKEND_SQL,
)


class TestBackendSelection:
    def test_default_is_sql(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert ExecutorConfig().backend == BACKEND_SQL

    def test_explicit_backend(self):
        for backend in BACKENDS:
            assert ExecutorConfig(backend=backend).backend == backend

    def test_env_var_supplies_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, BACKEND_PYTHON)
        assert ExecutorConfig().backend == BACKEND_PYTHON

    def test_explicit_backend_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, BACKEND_PYTHON)
        assert ExecutorConfig(backend=BACKEND_SQL).backend == BACKEND_SQL

    def test_empty_env_means_sql(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "")
        assert ExecutorConfig().backend == BACKEND_SQL

    def test_bad_env_backend_raises(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "duckdb")
        with pytest.raises(ValueError, match="duckdb"):
            ExecutorConfig()


class TestRemovedKwargs:
    @pytest.mark.parametrize("name", ["use_cache", "hash_join", "share_lookups"])
    def test_pre_redesign_booleans_are_gone(self, name):
        with pytest.raises(TypeError, match=name):
            ExecutorConfig(**{name: True})

    def test_shared_lookup_cache_is_folded_into_memoize(self):
        with pytest.raises(TypeError, match="shared_lookup_cache"):
            ExecutorConfig(shared_lookup_cache=False)

    def test_python_hash_is_gone(self, monkeypatch):
        assert BACKENDS == (BACKEND_PYTHON, BACKEND_SQL)
        with pytest.raises(ValueError, match="python-hash"):
            ExecutorConfig(backend="python-hash")
        monkeypatch.setenv(BACKEND_ENV_VAR, "python-hash")
        with pytest.raises(ValueError, match="python-hash"):
            ExecutorConfig()


class TestTuningKnobs:
    def test_memoize_is_a_real_field(self):
        assert ExecutorConfig(memoize=False).memoize is False

    def test_defaults_are_on(self):
        assert ExecutorConfig().memoize is True


class TestValueObject:
    def test_three_settable_fields(self):
        assert [f.name for f in dataclasses.fields(ExecutorConfig)] == [
            "backend", "strategy", "memoize",
        ]

    def test_immutable(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ExecutorConfig().backend = BACKEND_SQL

    def test_pickles_with_the_resolved_backend(self, monkeypatch):
        # A copy keeps the backend resolved where the config was built,
        # not the environment of whoever unpickles it.
        monkeypatch.setenv(BACKEND_ENV_VAR, BACKEND_PYTHON)
        config = ExecutorConfig(memoize=False)
        monkeypatch.delenv(BACKEND_ENV_VAR)
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config
        assert clone.backend == BACKEND_PYTHON and clone.memoize is False


class TestValidationReportsEverything:
    def test_all_invalid_fields_reported_at_once(self):
        with pytest.raises(ValueError) as excinfo:
            ExecutorConfig(backend="duckdb", strategy="psychic")
        message = str(excinfo.value)
        assert "duckdb" in message
        assert "psychic" in message

    def test_invalid_strategy_alone(self):
        with pytest.raises(ValueError, match="strategy"):
            ExecutorConfig(strategy="nope")


class TestDerivedProperties:
    def test_strategy_properties(self):
        for backend in BACKENDS:
            serial = ExecutorConfig(backend, strategy="serial")
            assert serial.share_prefixes is False
            assert serial.prune_by_bound is False
            pruned = ExecutorConfig(backend, strategy="shared-prefix+pruning")
            # One statement per CN on ``sql``: a shared prefix could only
            # add statements there.
            assert pruned.share_prefixes is (backend != BACKEND_SQL), backend
            assert pruned.prune_by_bound is True

    def test_repr_and_eq(self):
        a = ExecutorConfig(backend=BACKEND_SQL)
        b = ExecutorConfig(backend=BACKEND_SQL)
        assert a == b
        assert a != ExecutorConfig(backend=BACKEND_PYTHON)
        assert BACKEND_SQL in repr(a)
