"""The benchmark's own tests: python3 -m pytest -q perfbench"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts this checkout's src/ on the path)
import gen  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _bench(*args, cwd=HERE.parent):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in SPEC["end_to_end"]] == [
        (name, unit, better, bound)
        for name, (unit, better, bound, _) in run.END_TO_END.items()]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == [(name, *ub) for name, ub in tracing.LAYER_UNITS.items()]


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("traced", [0, 1])
def test_smoke(workload, traced, tmp_path):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", str(traced), "--smoke",
                  "--trace-out", str(tmp_path / "spans.json"))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    names = [m["name"] for m in SPEC["per_layer" if traced else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    if not traced:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert (tmp_path / "spans.json").is_file()


def test_negative_control(monkeypatch, capsys):
    """A flipped macro-body byte, as `verify --corrupt-table` makes, must
    come out as a failed operation, and the round must go on."""
    original = run.macros.compact_source

    def corrupted(*args, **kwargs):
        image, info = original(*args, **kwargs)
        if image.macros:
            first = image.macros[0]
            body = bytes([first.body[0] ^ 0x01]) + first.body[1:]
            image.macros[0] = run.objfile.MacroEntry(first.code, body)
        return image, info

    monkeypatch.setattr(run.macros, "compact_source", corrupted)
    # the kernel's only macro computes every value it prints
    text, expected = gen.kernel_fib(random.Random(0), 40)
    inputs = run.Inputs([run.Program("fib", text, 100_000, expected)], [],
                        (run.isa.MAX_MACROS,))
    rnd = run.run_round(inputs, run.Timings())
    # assemble, plain run, and per mode one compaction and one compacted run
    assert rnd.attempted == 2 + 2 * len(run.MODES)
    assert rnd.failed == 1
    assert "FAILED ('fib', 'greedy', 176) run compacted: trace differs" \
        in capsys.readouterr().err


def test_kernel_traces_match_the_vm():
    rng = random.Random(11)
    for kernel in gen.KERNELS:
        text, expected = kernel(rng, 50)
        out = run.vm.run(run.vm.load(run.asm.assemble(text)), 100_000)
        assert out.status == "halted" and out.trace == expected


def test_data_block_clears_the_code():
    # corpus.py pins its data block at 0x7000, which large programs overrun
    text = gen.program(random.Random(5), 10500, pool=1)
    image = run.asm.assemble(text)
    assert len(image.code) > 0x7000 - image.origin
    out = run.vm.run(run.vm.load(image), 1_000_000)
    assert out.status == "halted"


def test_refuses_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = _bench("--workload", "vm-hot", "--seed", "1", "--seconds", "1",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
