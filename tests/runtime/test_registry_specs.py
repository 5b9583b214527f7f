"""Tests of the declarative :class:`~repro.runtime.registry.EngineSpec` API.

The redesigned registration path: specs declare capabilities and
availability probes, the serial-engine preference order is derived from the
specs, capability queries raise typed errors on typos, and the pre-spec
bare-class registration survives as a deprecated compatibility path.
"""

import pytest

from repro.core.exceptions import InvalidParameterError, UnknownExecutorError
from repro.runtime import EngineSpec, available_executors, engines_with, get_executor
from repro.runtime.registry import (
    ENGINE_SPECS,
    EXECUTORS,
    KNOWN_CAPABILITIES,
    SERIAL_ENGINES,
    _derived_serial_engines,
    register_executor,
)
from repro.runtime.serial import SerialExecutor
from repro.runtime.vectorized import numpy_available


class TestSpecValidation:
    def test_unknown_capability_rejected_at_registration(self):
        with pytest.raises(InvalidParameterError, match="unknown capabilities"):
            EngineSpec(
                name="bad-spec",
                factory=SerialExecutor,
                capabilities=frozenset({"telepathic"}),
            )

    def test_empty_name_rejected(self):
        class Nameless(SerialExecutor):
            strategy = ""

        with pytest.raises(InvalidParameterError, match="strategy"):
            EngineSpec(name="", factory=Nameless)

    def test_availability_defaults_to_true(self):
        spec = EngineSpec(name="probe-free", factory=SerialExecutor)
        assert spec.is_available()


class TestBuiltinSpecs:
    def test_every_builtin_executor_has_a_spec(self):
        assert set(EXECUTORS) == set(ENGINE_SPECS)
        for name, spec in ENGINE_SPECS.items():
            assert spec.name == name
            assert spec.factory is EXECUTORS[name]
            assert spec.capabilities <= KNOWN_CAPABILITIES

    def test_serial_engines_derived_from_ranks(self):
        assert SERIAL_ENGINES == _derived_serial_engines()
        assert [ENGINE_SPECS[n].serial_rank for n in SERIAL_ENGINES] == sorted(
            ENGINE_SPECS[n].serial_rank for n in SERIAL_ENGINES
        )
        if numpy_available():
            assert SERIAL_ENGINES[0] == "vectorized"

    def test_retired_pipelined_name_is_unknown(self, i7_2600k):
        assert "pipelined" not in ENGINE_SPECS
        assert "pipelined" not in available_executors()
        assert "pipelined" not in KNOWN_CAPABILITIES
        with pytest.raises(UnknownExecutorError, match="pipelined"):
            get_executor("pipelined", i7_2600k)

    def test_multicore_capability_query(self):
        multicore = engines_with("multicore")
        assert "mp-parallel" in multicore
        assert "serial" not in multicore

    def test_unknown_capability_is_a_typed_error(self):
        with pytest.raises(UnknownExecutorError, match="unknown engine capability"):
            engines_with("bogus-capability")
        # Typed errors still satisfy pre-existing KeyError expectations.
        assert issubclass(UnknownExecutorError, KeyError)


class TestDeprecatedBareClassPath:
    def test_bare_class_registration_warns_and_registers(self):
        class LegacyProbe(SerialExecutor):
            strategy = "legacy-probe-executor"

        try:
            with pytest.warns(DeprecationWarning, match="bare executor class"):
                returned = register_executor(LegacyProbe)
            assert returned is LegacyProbe  # decorator-compatible
            assert EXECUTORS["legacy-probe-executor"] is LegacyProbe
            spec = ENGINE_SPECS["legacy-probe-executor"]
            assert spec.capabilities == frozenset()
            assert spec.is_available()
        finally:
            del EXECUTORS["legacy-probe-executor"]
            del ENGINE_SPECS["legacy-probe-executor"]
