"""Adaptive backend selection (``backend="auto"``) and its rule."""

from types import SimpleNamespace

import pytest

from repro.cli import build_parser
from repro.devices import build_device
from repro.engine import (AUTO, MIN_BATCH, VECTOR, EvaluationSession,
                          resolve_backend)
from repro.errors import ModelError


def _power(model):
    return model.pattern_power().power


#: (numpy present, device count, plan eligible) -> backend that
#: ``session.map(..., backend="auto")`` runs.
AUTO_RULE = [
    (True, MIN_BATCH, True, VECTOR),
    (True, 4 * MIN_BATCH, True, VECTOR),
    (True, MIN_BATCH, False, "serial"),
    (True, MIN_BATCH - 1, True, "serial"),
    (True, 2, True, "serial"),
    (True, 0, True, "serial"),
    (False, MIN_BATCH, True, "serial"),
    (False, 4 * MIN_BATCH, True, "serial"),
    (False, MIN_BATCH - 1, False, "serial"),
]


class TestAutoRule:
    """``auto`` is vector when numpy is present, the sweep is at
    least ``MIN_BATCH`` wide and its plan is eligible; else serial."""

    @pytest.mark.parametrize("numpy_present,count,eligible,expected",
                             AUTO_RULE)
    def test_session_map_auto_backend(self, monkeypatch, numpy_present,
                                      count, eligible, expected):
        used = []

        def vectorized(session, devices, fn, plan=None):
            used.append(VECTOR)
            return [fn(session.model(device)) for device in devices]

        monkeypatch.setattr("repro.engine.session.numpy_available",
                            lambda: numpy_present)
        monkeypatch.setattr("repro.engine.session.plan_batches",
                            lambda devices: SimpleNamespace(
                                eligible=eligible))
        monkeypatch.setattr(EvaluationSession, "map_vectorized",
                            vectorized)
        devices = [build_device(55)] * count
        session = EvaluationSession()
        results = session.map(devices, _power, backend=AUTO)
        assert (used or ["serial"]) == [expected]
        assert results == [_power(session.model(device))
                           for device in devices]


class TestResolveBackend:
    def test_auto_passes_through_unresolved(self):
        assert resolve_backend(AUTO) == AUTO

    def test_none_keeps_historical_defaults(self):
        assert resolve_backend(None) == "serial"

    def test_unknown_backend_names_the_choices(self):
        for unknown in ("cluster", "thread", "process"):
            with pytest.raises(ModelError) as failure:
                resolve_backend(unknown)
            for name in ("serial", "auto", "vector"):
                assert name in str(failure.value)


class TestSessionAutoBackend:
    def test_auto_matches_serial_bit_for_bit(self):
        devices = [build_device(node) for node in (170, 90, 55)]
        session = EvaluationSession()
        serial = session.map(devices, _power, backend="serial")
        auto = session.map(devices, _power, backend=AUTO)
        assert auto == serial


class TestAutoInFrontEnds:
    @pytest.mark.parametrize("command", ["sensitivity", "corners",
                                         "trends"])
    def test_cli_sweeps_default_to_auto(self, command):
        args = build_parser().parse_args([command])
        assert args.backend == "auto"

    def test_cli_accepts_explicit_auto(self):
        args = build_parser().parse_args(
            ["sensitivity", "--backend", "auto"])
        assert args.backend == "auto"

    def test_cli_rejects_process_backend(self, capsys):
        for command in ("sensitivity", "trace"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    [command, "--backend", "process"])
            assert "invalid choice: 'process'" in capsys.readouterr().err
