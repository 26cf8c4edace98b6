"""Concurrency hammer for the on-disk columnar result store.

The sweep runner, the capacity planner and the evaluation service all
write to the same store — from multiple threads inside one server
process and from multiple processes across CLI invocations.
Delta-writers on *overlapping* grids share one family directory — they
gather rows out of each other's chunks and read-modify-replace one
manifest.  The contract under fire: whatever interleaving of delta
commits, ``clear()`` and ``gc()`` happens, every sweep result is
byte-identical to a fresh no-cache run — a lost manifest race or
deleted chunk may cost a recompute, never correctness.  Staging files
are named ``.tmp-*.part`` so that ``clear()`` racing an in-flight write
never unlinks it and crashes the writer's ``os.replace``.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.scenarios import SweepRunner, parse_scenario
from repro.store import ResultStore

#: Shared sweep axis; windows overlap so writers reuse each other's rows.
STORE_FLOPS = (5e8, 1e9, 2e9, 4e9, 8e9)
STORE_WINDOWS = ((0, 3), (1, 4), (2, 5), (0, 5))


def _store_document(lo: int, hi: int) -> dict:
    return {
        "scenario": 1,
        "name": "store-hammer",
        "description": "overlapping delta-writer fixture",
        "hardware": {"flops": 1e9, "bandwidth_bps": 1e9},
        "algorithm": {
            "kind": "gradient_descent",
            "params": {
                "operations_per_sample": 1e7,
                "batch_size": 1000,
                "parameters": 7812500,
            },
        },
        "workers": {"min": 1, "max": 8},
        "sweep": {"flops": list(STORE_FLOPS[lo:hi])},
    }


def _store_expected() -> dict[tuple[int, int], str]:
    """Fresh no-cache payloads per window — the byte-identity oracle."""
    runner = SweepRunner(mode="serial", use_cache=False)
    return {
        window: json.dumps(runner.run(parse_scenario(_store_document(*window))).payload())
        for window in STORE_WINDOWS
    }


def _hammer_store_sweeps(directory: str, rounds: int) -> int:
    """Sweep every window repeatedly; results must match the oracle."""
    expected = _store_expected()
    runner = SweepRunner(mode="serial", cache_dir=directory)
    for _ in range(rounds):
        for window in STORE_WINDOWS:
            result = runner.run(parse_scenario(_store_document(*window)))
            got = json.dumps(result.payload())
            assert got == expected[window], (
                f"store returned a wrong/torn sweep for window {window}"
            )
    return rounds


class TestStoreHammer:
    def test_overlapping_delta_writers_with_clear_and_gc(self, tmp_path):
        """Delta commits racing clear()/gc() never corrupt a result."""
        directory = str(tmp_path)
        store = ResultStore(tmp_path)
        stop = threading.Event()
        errors: list[BaseException] = []

        def run(target, *args):
            try:
                target(*args)
            except BaseException as error:  # noqa: BLE001 - collected for assert
                errors.append(error)

        def maintenance_loop():
            try:
                while not stop.is_set():
                    store.clear()
                    store.gc()
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        sweepers = [
            threading.Thread(target=run, args=(_hammer_store_sweeps, directory, 5))
            for _ in range(4)
        ]
        maintainer = threading.Thread(target=maintenance_loop)
        maintainer.start()
        for thread in sweepers:
            thread.start()
        for thread in sweepers:
            thread.join()
        stop.set()
        maintainer.join()
        assert not errors, errors
        # The store is still coherent: one more run of every window.
        _hammer_store_sweeps(directory, 1)

    def test_overlapping_writers_converge_to_hits(self, tmp_path):
        """Without maintenance racing, overlap resolves into pure reuse."""
        directory = str(tmp_path)
        errors: list[BaseException] = []

        def run():
            try:
                _hammer_store_sweeps(directory, 3)
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=run) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        runner = SweepRunner(mode="serial", cache_dir=directory)
        # Repair pass: a manifest race in the writers' final round may
        # have dropped a view (last writer wins); one quiet pass re-adds
        # it from the surviving chunks' rows.
        for window in STORE_WINDOWS:
            runner.run(parse_scenario(_store_document(*window)))
        for window in STORE_WINDOWS:
            result = runner.run(parse_scenario(_store_document(*window)))
            assert result.stats["cache_hit"] is True
            assert result.stats["points_computed"] == 0

    def test_store_staging_files_survive_clear(self, tmp_path):
        """The naming contract behind clear() racing live writers.

        pathlib's globs match dotfiles, so a staging file must not look
        like a store entry or ``clear()`` would delete it mid-write.
        """
        runner = SweepRunner(mode="serial", cache_dir=tmp_path)
        runner.run(parse_scenario(_store_document(0, 3)))
        family_dir = next((tmp_path / "store").iterdir())
        staging = family_dir / ".tmp-in-flight.part"
        staging.write_bytes(b"live writer")
        removed = runner.store.clear()
        assert removed == 1  # one family entry, not the stray file
        assert staging.exists()


@pytest.mark.slow
class TestStoreProcessHammer:
    def test_cross_process_delta_writers(self, tmp_path):
        directory = str(tmp_path)
        with ProcessPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(_hammer_store_sweeps, directory, 3) for _ in range(4)
            ]
            for future in futures:
                future.result(timeout=300)  # raises on wrong/torn sweeps
        _hammer_store_sweeps(directory, 1)
