"""A dropped runtime is freed by reference counting: no run, checkpoint,
restart or exploration leaves cyclic garbage for the collector."""

import gc

import pytest

from ccsim import SnapshotImage, explore_small, generate_workload, run, run_restart

import test_acceptance


def cyclic_garbage_after(case) -> int:
    """Objects the cyclic collector frees after case(), whose result is dropped."""
    gc.collect()
    gc.disable()
    try:
        case()
        return gc.collect()
    finally:
        gc.enable()


def generated(algorithm):
    return generate_workload(5, ranks=8, groups=2, ops=120, p2p_ratio=0.2,
                             nonblocking_ratio=0.0 if algorithm == "2pc" else 0.3)


class TestNoCyclicGarbage:
    @pytest.mark.parametrize("algorithm", ["none", "cc", "2pc"])
    def test_run(self, algorithm):
        sc = generated(algorithm)
        ckpt = None if algorithm == "none" else ("at_step", 40)

        def case():
            result = run(sc, algorithm, seed=5, ckpt=ckpt, record=True, checks=True)
            assert result.sim.all_finished() and all(v.passed for v in result.verdicts)

        assert cyclic_garbage_after(case) == 0

    @pytest.mark.parametrize("algorithm", ["cc", "2pc"])
    def test_checkpoint_dump_load_restart(self, algorithm):
        sc = generated(algorithm)

        def case():
            halted = run(sc, algorithm, seed=5, ckpt=("at_step", 40), halt_at_snapshot=True)
            assert halted.sim.halted
            image = SnapshotImage.loads(halted.snapshot.dumps())
            assert run_restart(image).checksums == run(sc, algorithm, seed=5).checksums

        assert cyclic_garbage_after(case) == 0

    @pytest.mark.parametrize("name", ["x-mixed", "x-blocking"])
    def test_explore_small(self, name):
        algorithm, sc = next(case for case in test_acceptance.TestCriterion5Exhaustive()._cases()
                             if case[1].name == name)

        def case():
            assert explore_small(sc, algorithm).passed

        assert cyclic_garbage_after(case) == 0
