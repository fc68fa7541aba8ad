"""The native commit-log recorder must equal the Python recorder.

``record_run(..., native=False)`` is the per-instruction Python
recorder, the oracle. With the native recorder on, every record field —
the log arrays, keyframes, final outputs and the replayability verdict
with its reason — must come out identical: on every workload, on random
programs, on every case where the C loop hands back to Python, when no
compiler exists, and when two threads race to build the library.
"""

import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.common import build_anytime
from repro.isa import Instruction, Program
from repro.sim import CPU, default_memory, native
from repro.sim.memory import SRAM_BASE
from repro.sim.peripherals import SENSOR_BASE, SensorFIFO, attach_sensor
from repro.sim.replay import record_run
from repro.workloads import ALL_BENCHMARKS, make_workload

MASK32 = 0xFFFFFFFF
SCRATCH_BASE = 0x400

#: Every ReplayRecord field the record pass writes.
FIELDS = (
    "pcs", "cum_cost", "mem_kind", "mem_addr", "mem_size",
    "store_pos", "store_addr", "store_size", "store_value",
    "skim_pos", "skim_target", "peek_costs", "keyframes",
    "keyframe_interval", "length", "final_outputs", "replayable", "reason",
)


def assert_same_record(got, want):
    for name in FIELDS:
        assert getattr(got, name) == getattr(want, name), name


@pytest.fixture(scope="module")
def native_available():
    if native.native_recorder() is None:
        pytest.skip(f"native recorder unavailable: {native.unavailable_reason}")


def _cold_cache(monkeypatch, tmp_path):
    """Point every cache directory at an empty tree; forget the library."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    monkeypatch.setattr(native, "_library", None)
    monkeypatch.setattr(native, "unavailable_reason", None)


class ProgramKernel:
    """The slice of the AnytimeKernel interface ``record_run`` uses."""

    config = SimpleNamespace(memoization=False, zero_skipping=False)

    def __init__(self, instructions, regs=(), sensor=False):
        self.program = Program(list(instructions), {})
        self.regs = list(regs)
        self.sensor = sensor

    def make_cpu(self, inputs):
        memory = default_memory()
        if self.sensor:
            fifo = SensorFIFO()
            fifo.push_many(range(1, 9))
            attach_sensor(memory, fifo)
        cpu = CPU(self.program, memory)
        for i, value in enumerate(self.regs):
            cpu.regs[i] = value
        return cpu

    def read_outputs(self, cpu):
        # The final architectural state too, so no register escapes.
        return {
            "scratch": cpu.memory.read_words(SCRATCH_BASE, 32),
            "regs": list(cpu.regs.regs) + [cpu.pc],
            "flags": list(cpu.flags.snapshot()),
        }


def _both(kernel, inputs=None, **kwargs):
    got = record_run(kernel, inputs, **kwargs)
    want = record_run(kernel, inputs, native=False, **kwargs)
    assert_same_record(got, want)
    return got


# -- every workload ----------------------------------------------------------


@pytest.mark.parametrize("bits", [None, 8, 4])
@pytest.mark.parametrize("name", ALL_BENCHMARKS)
def test_workload_records_match(native_available, name, bits):
    workload = make_workload(name, "tiny")
    mode = "precise" if bits is None else workload.technique
    record = _both(build_anytime(workload, mode, bits), workload.inputs)
    assert record.replayable and record.recorder == "native"


def test_small_chunks_match(native_available, monkeypatch):
    """Chunk boundaries (and keyframes straddling them) are seamless."""
    monkeypatch.setattr(native, "CHUNK", 37)
    workload = make_workload("Var", "tiny")
    kernel = build_anytime(workload, workload.technique, 4)
    record = _both(kernel, workload.inputs, keyframe_interval=16)
    assert record.recorder == "native" and record.length > 37


# -- random programs ----------------------------------------------------------

_REG = st.integers(0, 7)
_IMM = st.integers(-0x8000, 0xFFFF)  # negative: the unmasked ORR/EOR quirk
_ALU3 = ("ADD", "ADC", "SUB", "SBC", "RSB", "AND", "ORR", "EOR", "BIC",
         "LSL", "LSR", "ASR")
_UNARY = ("MOV", "MVN", "NEG", "SXTB", "SXTH", "UXTB", "UXTH")
_FLAGS = ("CMP", "CMN", "TST")
_WIDTHS = (1, 2, 3, 4, 8, 16)


@st.composite
def _instruction(draw, length):
    kind = draw(st.sampled_from((
        "alu", "alu_imm", "unary", "flags", "mul", "asp", "asv",
        "store", "load", "skm", "branch", "branch",
    )))
    rd = draw(_REG)
    if kind in ("alu", "alu_imm"):
        op = draw(st.sampled_from(_ALU3))
        if kind == "alu":
            return Instruction(op, rd=rd, rn=draw(_REG), rm=draw(_REG))
        imm = draw(st.integers(0, 40)) if op in ("LSL", "LSR", "ASR") else draw(_IMM)
        return Instruction(op, rd=rd, rn=draw(_REG), imm=imm)
    if kind == "unary":
        op = draw(st.sampled_from(_UNARY))
        if draw(st.booleans()):
            return Instruction(op, rd=rd, rm=draw(_REG))
        return Instruction(op, rd=rd, imm=draw(_IMM))
    if kind == "flags":
        return Instruction(draw(st.sampled_from(_FLAGS)), rn=draw(_REG),
                           rm=draw(_REG))
    if kind == "mul":
        return Instruction("MUL", rd=rd, rn=rd, rm=draw(_REG))
    if kind == "asp":
        width = draw(st.sampled_from(_WIDTHS))
        signed = "S" if draw(st.booleans()) else ""
        return Instruction(f"MUL_ASP{signed}{width}", rd=rd, rm=draw(_REG),
                           imm=draw(st.integers(0, 40 // width)))
    if kind == "asv":
        op = draw(st.sampled_from(("ADD", "SUB")))
        lane = draw(st.sampled_from((4, 8, 16)))
        return Instruction(f"{op}_ASV{lane}", rd=rd, rm=draw(_REG))
    if kind in ("store", "load"):
        width = draw(st.sampled_from(("", "B", "H")))
        op = ("STR" if kind == "store" else "LDR") + width
        # R8: NVM scratch; R9 (rarely): volatile SRAM, a hand-back.
        base = draw(st.sampled_from((8, 8, 8, 8, 8, 8, 8, 9)))
        if draw(st.booleans()):
            return Instruction(op, rd=rd, rn=base, rm=10)  # R10 = 6
        return Instruction(op, rd=rd, rn=base, imm=draw(st.integers(0, 63)))
    if kind == "skm":
        return Instruction("SKM", target=draw(st.integers(0, length)))
    op = draw(st.sampled_from(
        ("B", "BEQ", "BNE", "BLT", "BGE", "BGT", "BLE", "BLO", "BHS",
         "BHI", "BLS", "BMI", "BPL")
    ))
    return Instruction(op, target=draw(st.integers(0, length)))


@st.composite
def _programs(draw):
    length = draw(st.integers(1, 40))
    body = [draw(_instruction(length)) for _ in range(length)]
    regs = draw(st.lists(st.integers(0, MASK32), min_size=8, max_size=8))
    interval = draw(st.sampled_from((1, 1, 3, 256)))
    chunk = draw(st.sampled_from((5, 64, native.CHUNK)))
    return body, regs, interval, chunk


@settings(deadline=None, max_examples=100)
@given(_programs())
def test_random_programs_match(case):
    """Random ALU/memory/WN/branch programs; loops end at the limit."""
    body, regs, interval, chunk = case
    kernel = ProgramKernel(
        body + [Instruction("HALT")],
        regs + [SCRATCH_BASE, SRAM_BASE, 6],
    )
    with mock.patch.object(native, "CHUNK", chunk):
        _both(kernel, keyframe_interval=interval, max_instructions=400)


# -- hand-back cases ------------------------------------------------------------


def _prologue():
    """Some work for the native loop before the interesting instruction."""
    return [
        Instruction("MOV", rd=1, imm=7),
        Instruction("STR", rd=1, rn=8, imm=0),
        Instruction("SKM", target=3),
        Instruction("LDR", rd=2, rn=8, imm=0),
    ]


@pytest.mark.parametrize(
    "tail, reason",
    [
        ([Instruction("STR", rd=1, rn=9, imm=4)], "access at 0x20000004 leaves"),
        ([Instruction("LDRH", rd=1, rn=9, imm=2)], "access at 0x20000002 leaves"),
        ([Instruction("LDR", rd=1, rn=11, imm=0)], "access at 0x40000000 leaves"),
        ([Instruction("LDR", rd=1, rn=12, imm=0)], "recording run faulted"),
        ([Instruction("BX", rm=13)], "recording run faulted"),
        ([Instruction("B", target=99)], "recording run faulted"),
        ([Instruction("MUL_ASP4", rd=1, rm=2, imm=-1)], "recording run faulted"),
    ],
    ids=["volatile-store", "volatile-load", "device-load", "unmapped-load",
         "bx-fault", "pc-fault", "unsupported-op"],
)
def test_hand_back_verdicts_match(native_available, tail, reason):
    kernel = ProgramKernel(
        _prologue() + tail + [Instruction("HALT")],
        [0] * 8 + [SCRATCH_BASE, SRAM_BASE, 6, SENSOR_BASE, 0x00300000, 500],
        sensor=True,
    )
    record = _both(kernel, keyframe_interval=2)
    assert not record.replayable and record.reason.startswith(reason)
    assert record.recorder == "python"
    assert len(record.pcs) >= len(_prologue())


@pytest.mark.parametrize("limit", [0, 1, 5, 6, 50])
def test_instruction_limit_matches(native_available, limit):
    loop = [
        Instruction("ADD", rd=1, rn=1, imm=1),
        Instruction("STR", rd=1, rn=8, imm=0),
        Instruction("B", target=0),
    ]
    record = _both(ProgramKernel(loop, [0] * 8 + [SCRATCH_BASE]),
                   keyframe_interval=4, max_instructions=limit)
    assert record.reason == "instruction limit exceeded while recording"
    assert len(record.pcs) == limit


# -- build and load --------------------------------------------------------------


def test_no_compiler_uses_python_recorder(monkeypatch, tmp_path):
    _cold_cache(monkeypatch, tmp_path)
    monkeypatch.setattr(native.shutil, "which", lambda name: None)
    workload = make_workload("MatMul", "tiny")
    kernel = build_anytime(workload, workload.technique, 8)
    record = _both(kernel, workload.inputs)
    assert record.recorder == "python"
    assert native.unavailable_reason == "gcc not found on PATH"
    assert not list((tmp_path / "xdg").rglob("*.so"))


def test_threads_cold_cache_build_once(monkeypatch, tmp_path):
    """Threads recording at once on a cold cache (more threads than the
    two service workers, and than most CI cores): one build, and every
    thread's record is correct."""
    if shutil.which("gcc") is None:
        pytest.skip("no gcc")
    _cold_cache(monkeypatch, tmp_path)
    builds = []
    compile_once = native._compile

    def counting_compile(target):
        builds.append(target)
        compile_once(target)

    monkeypatch.setattr(native, "_compile", counting_compile)
    jobs = []
    for name, bits in (("MatMul", 8), ("Var", 4), ("MatAdd", 8), ("Home", 4)):
        workload = make_workload(name, "tiny")
        jobs.append((build_anytime(workload, workload.technique, bits),
                     workload.inputs))
    barrier = threading.Barrier(len(jobs))
    records = [None] * len(jobs)

    def work(i):
        barrier.wait()
        records[i] = record_run(*jobs[i])

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)

    assert len(builds) == 1
    assert builds[0].parent == tmp_path / "xdg" / "repro" / "native"
    assert builds[0].name == native.library_name()
    for (kernel, inputs), record in zip(jobs, records):
        assert record.recorder == "native"
        assert_same_record(record, record_run(kernel, inputs, native=False))
    # No temp files left behind next to the library.
    assert sorted(p.suffix for p in builds[0].parent.iterdir()) == [".lock", ".so"]


def test_cli_and_interpreter_never_load_native():
    """``list``, server import and an interpreted run never build."""
    code = (
        "import contextlib, io, sys\n"
        "from repro.__main__ import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['list'])\n"
        "import repro.service.server\n"
        "from repro.experiments.common import build_anytime\n"
        "from repro.workloads import make_workload\n"
        "w = make_workload('Home', 'tiny')\n"
        "build_anytime(w, w.technique, 8).run(w.inputs)\n"
        "print('repro.sim.native' in sys.modules)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={"PYTHONPATH": str(src), "PATH": ""}, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
