"""Native commit-log recorder: the record pass in C, loaded with ctypes.

:func:`repro.sim.replay.record_run` spends its time interpreting the
program in Python and appending one log row per retired instruction.
This module runs the same loop in C (``native_record.c``) and hands the
rows back in chunks, so the record it builds is field for field the one
the Python recorder builds: ``pcs``, ``cum_cost``, the access log, the
store log, skim events and keyframes.

* **Build.** The C source is compiled on first use (never at import)
  with the system ``gcc -O2 -shared -fPIC`` and cached as
  ``$XDG_CACHE_HOME/repro/native/<sha256>.so`` (``~/.cache`` when the
  variable is unset, the temp directory when neither is writable). The
  hash covers the source and the platform. The compiler writes a temp
  file that is renamed into place under a file lock, so concurrent
  processes build at most once and never load a torn library.
* **Hand-back.** The C loop stops *before* any instruction it does not
  model: an access outside non-volatile plain RAM, a PC or ``BX``
  target that faults, or an encoding the encoder rejects (unusual
  operands, a cost outside the replay precondition). The Python
  recorder resumes at that exact position, so every non-replayable
  verdict and reason comes from the oracle itself.
* **Memory.** The C code reads and writes the CPU's region
  ``bytearray``\\ s in place; it runs at most :data:`CHUNK` positions
  per call into reusable buffers that are appended to the record's
  arrays, so peak memory stays flat and ``max_instructions`` is honoured
  between chunks.
* **Threads.** ctypes releases the GIL for the call and the C code has
  no globals, so service worker threads record concurrently.

When no compiler is available (or the build or load fails) the reason
is kept in :data:`unavailable_reason` and ``record_run`` uses the Python
recorder for everything.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
from array import array
from pathlib import Path
from typing import List, Optional, Tuple

from ..isa.instructions import (
    ASP_OPS,
    ASPS_OPS,
    BRANCH_CONDS,
    LOAD_OPS,
    STORE_OPS,
    asp_width,
    asv_width,
)

#: The C source compiled into the cached library.
SOURCE = Path(__file__).with_name("native_record.c")

#: Stream positions per C call (the size of the reusable row buffers).
CHUNK = 1 << 16

# Mirrors of the C enums; the order is the contract.
_OP_NAMES = (
    "MOV", "MVN", "ADD", "ADC", "CMN", "SUB", "SBC", "CMP", "RSB", "NEG",
    "TST", "AND", "ORR", "EOR", "BIC", "LSL", "LSR", "ASR", "SXTB", "SXTH",
    "UXTB", "UXTH", "LOAD", "STORE", "B", "BL", "BX", "BCC", "MUL", "ASP",
    "ASV_ADD", "ASV_SUB", "SKM", "HALT", "NOP",
)
_OP = {name: code for code, name in enumerate(_OP_NAMES, start=1)}
_CONDS = ("EQ", "NE", "LT", "GE", "GT", "LE", "LO", "HS", "HI", "LS", "MI", "PL")
_N_FIELDS = 8  # op, rd, rn, rm, imm, target, cost, aux
_KF_WORDS = 22  # pos, 16 registers, n z c v, pc
_UNSUPPORTED = (0,) * _N_FIELDS
_INT64 = (-(1 << 63), 1 << 63)

_WN_STOPPED = 1

#: Why the native recorder is unavailable in this process (None while
#: it has not been tried or when it loaded).
unavailable_reason: Optional[str] = None

_lock = threading.Lock()
_library = None  # None: not tried yet; False: unavailable


class NativeUnavailable(Exception):
    """The native recorder could not be built or loaded."""


class _Region(ctypes.Structure):
    _fields_ = [
        ("data", ctypes.c_void_p),
        ("base", ctypes.c_int64),
        ("size", ctypes.c_int64),
        ("safe", ctypes.c_int64),
    ]


class _State(ctypes.Structure):
    _fields_ = [
        ("regs", ctypes.c_int64 * 16),
        ("flags", ctypes.c_int64 * 4),
        ("pc", ctypes.c_int64),
        ("halted", ctypes.c_int64),
        ("pos", ctypes.c_int64),
        ("total", ctypes.c_int64),
    ]


#: (field, array typecode) of every row buffer, in the order of the C
#: ``wn_log`` struct. Typecodes match ReplayRecord's arrays.
_BUFFERS = (
    ("pcs", "i"),
    ("cum_cost", "q"),
    ("mem_kind", "b"),
    ("mem_addr", "I"),
    ("mem_size", "b"),
    ("store_pos", "q"),
    ("store_addr", "I"),
    ("store_size", "b"),
    ("store_value", "I"),
    ("skim_pos", "q"),
    ("skim_target", "q"),
    ("keyframes", "q"),
)
#: Row buffers appended to the record's array of the same name, with
#: the ``wn_log`` counter of rows written per call.
_ARRAY_ROWS = (
    ("pcs", "n_pos"), ("cum_cost", "n_pos"), ("mem_kind", "n_pos"),
    ("mem_addr", "n_pos"), ("mem_size", "n_pos"),
    ("store_pos", "n_store"), ("store_addr", "n_store"),
    ("store_size", "n_store"), ("store_value", "n_store"),
)


class _Log(ctypes.Structure):
    _fields_ = [(name, ctypes.c_void_p) for name, _ in _BUFFERS] + [
        ("n_pos", ctypes.c_int64),
        ("n_store", ctypes.c_int64),
        ("n_skim", ctypes.c_int64),
        ("n_keyframes", ctypes.c_int64),
    ]


# -- build and load -----------------------------------------------------------


def library_name() -> str:
    """Cache file name: sha256 of the C source and the platform."""
    platform_tag = f"{sys.platform}-{platform.machine()}".encode()
    digest = hashlib.sha256(SOURCE.read_bytes() + b"\0" + platform_tag)
    return digest.hexdigest() + ".so"


def _cache_dirs() -> List[Path]:
    """Candidate cache directories, most preferred first."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return [
        Path(base) / "repro" / "native",
        Path(tempfile.gettempdir()) / "repro-native",
    ]


def _compile(target: Path) -> None:
    """Compile :data:`SOURCE` to ``target`` via a temp file + rename."""
    cc = shutil.which("gcc")
    if cc is None:
        raise NativeUnavailable("gcc not found on PATH")
    fd, tmp = tempfile.mkstemp(
        prefix=target.stem[:16] + ".", suffix=".tmp", dir=target.parent
    )
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, "-O2", "-shared", "-fPIC", "-o", tmp, str(SOURCE)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise NativeUnavailable(
                f"gcc exited {proc.returncode}: {proc.stderr.strip()[:500]}"
            )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _built_library() -> Path:
    """Path of the cached library, compiling it if no process has."""
    name = library_name()
    errors = []
    for directory in _cache_dirs():
        target = directory / name
        if target.exists():
            return target
        try:
            directory.mkdir(parents=True, exist_ok=True)
            with open(directory / (name + ".lock"), "a") as lock:
                try:
                    import fcntl

                    fcntl.flock(lock, fcntl.LOCK_EX)
                except ImportError:  # pragma: no cover - non-POSIX hosts
                    pass
                if not target.exists():  # another process may have won
                    _compile(target)
            return target
        except OSError as exc:
            errors.append(f"{directory}: {exc}")
    raise NativeUnavailable("no writable cache directory (" + "; ".join(errors) + ")")


def _load():
    if sys.byteorder != "little" or array("I").itemsize != 4:
        raise NativeUnavailable("needs a little-endian host with 32-bit C ints")
    path = _built_library()
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        raise NativeUnavailable(f"cannot load {path}: {exc}") from None
    fn = lib.wn_record
    fn.restype = ctypes.c_int
    fn.argtypes = [
        ctypes.c_void_p, ctypes.c_int64, ctypes.POINTER(_Region),
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        ctypes.POINTER(_State), ctypes.POINTER(_Log),
    ]
    return fn


def native_recorder():
    """The loaded ``wn_record`` entry point, or None when unavailable.

    Builds on the first call in a process (thread-safe: concurrent
    first callers wait for one build); later calls are a lookup."""
    global _library, unavailable_reason
    if _library is None:
        with _lock:
            if _library is None:
                try:
                    _library = _load()
                except (NativeUnavailable, OSError, subprocess.SubprocessError) as exc:
                    unavailable_reason = str(exc)
                    _library = False
    return _library or None


# -- program encoding ---------------------------------------------------------


def _reg(index) -> bool:
    return type(index) is int and 0 <= index < 16


def _int64(value) -> bool:
    return type(value) is int and _INT64[0] <= value < _INT64[1]


def _encode(instr, peek: int, full_width: int) -> Tuple[int, ...]:
    """Eight int64 fields for one instruction (all zero = unsupported)."""
    op = instr.op
    rd, rn, rm, imm, target = instr.rd, instr.rn, instr.rm, instr.imm, instr.target
    has_rm = rm is not None
    if has_rm and not _reg(rm):
        return _UNSUPPORTED
    src_ok = has_rm or _int64(imm)
    aux = 0
    cost = peek
    if op in LOAD_OPS or op in STORE_OPS:
        code = _OP["LOAD"] if op in LOAD_OPS else _OP["STORE"]
        aux = 4 if op.endswith("R") else (1 if op.endswith("B") else 2)
        ok = _reg(rd) and _reg(rn) and src_ok
    elif op in BRANCH_CONDS:
        code = _OP["BCC"]
        aux = _CONDS.index(BRANCH_CONDS[op])
        ok = _int64(target)
    elif op in ("B", "BL"):
        code = _OP[op]
        ok = _int64(target)
    elif op == "BX":
        code = _OP[op]
        ok = has_rm
    elif op == "MUL":
        code = _OP[op]
        cost = full_width
        ok = _reg(rd) and has_rm
    elif op in ASP_OPS or op in ASPS_OPS:
        code = _OP["ASP"]
        width = asp_width(op)
        cost = width
        aux = 0xFFFFFFFF if op in ASPS_OPS else (1 << width) - 1
        ok = _reg(rd) and has_rm and type(imm) is int and imm >= 0
        # The product shift; any shift past 31 leaves a zero result.
        imm = min(width * imm, 64) if ok else 0
    elif "_ASV" in op:
        code = _OP["ASV_ADD"] if op.startswith("ADD") else _OP["ASV_SUB"]
        aux = asv_width(op)
        ok = _reg(rd) and has_rm
    elif op == "SKM":
        code = _OP[op]
        ok = _int64(target)
    elif op in ("HALT", "NOP"):
        code = _OP[op]
        ok = True
    else:  # single-cycle ALU
        code = _OP[op]
        writes = op not in ("CMP", "CMN", "TST")
        reads_rn = op not in ("MOV", "MVN", "NEG", "SXTB", "SXTH", "UXTB", "UXTH")
        ok = src_ok and (_reg(rd) or not writes) and (_reg(rn) or not reads_rn)
        if ok and op in ("LSL", "LSR", "ASR") and not has_rm:
            aux = min(imm & 0xFF, 32)
    # The replay fast-forward needs actual and worst-case costs within
    # one cycle; anything else is the Python recorder's verdict to give.
    if not ok or not peek - 1 <= cost <= peek:
        return _UNSUPPORTED
    return (
        code,
        rd if _reg(rd) else 0,
        rn if _reg(rn) else 0,
        rm if has_rm else -1,
        imm if _int64(imm) else 0,
        target if _int64(target) else 0,
        cost,
        aux,
    )


def program_code(cpu) -> array:
    """The encoded program for ``cpu`` (cached on its program)."""
    program = cpu.program
    full_width = cpu.multiplier.full_width
    cache = getattr(program, "_native_code", None)
    if (
        cache is not None
        and cache[0] is program.instructions
        and cache[1] == full_width
    ):
        return cache[2]
    code = array("q")
    for instr, peek in zip(program.instructions, cpu._peek_costs):
        code.extend(_encode(instr, peek, full_width))
    program._native_code = (program.instructions, full_width, code)
    return code


# -- recording ----------------------------------------------------------------


def record_native(fn, cpu, record, max_instructions: int) -> Tuple[int, int]:
    """Record from the CPU's current state (position 0) into ``record``.

    Runs ``fn`` (from :func:`native_recorder`) chunk by chunk and
    returns ``(position, cycles)`` where it stopped; the CPU's
    registers, flags, PC, halt latch and memory are left exactly as the
    Python recorder would have them at that position, so it can resume
    there (or stop, when ``cpu.halted``)."""
    regs = cpu.regs.regs
    multiplier = cpu.multiplier
    interval = record.keyframe_interval
    if (
        multiplier.memo is not None
        or multiplier.zero_skipping
        or type(interval) is not int
        or interval < 1
        or not all(_int64(value) for value in regs)
        or not _int64(cpu.pc)
    ):
        return 0, 0
    code = program_code(cpu)

    regions = cpu.memory.regions
    c_regions = (_Region * max(1, len(regions)))()
    views = []  # keeps the exported bytearrays pinned during the calls
    for slot, region in zip(c_regions, regions):
        slot.base = region.base
        slot.size = region.size
        if not region.volatile and region.device is None and len(region.data) == region.size:
            view = (ctypes.c_char * region.size).from_buffer(region.data)
            views.append(view)
            slot.data = ctypes.addressof(view)
            slot.safe = 1

    state = _State()
    state.regs[:] = regs
    flags = cpu.flags
    state.flags[:] = [bool(flags.n), bool(flags.z), bool(flags.c), bool(flags.v)]
    state.pc = cpu.pc
    state.halted = bool(cpu.halted)

    chunk = CHUNK
    log = _Log()
    buffers = {}
    for name, typecode in _BUFFERS:
        rows = (chunk // interval + 1) * _KF_WORDS if name == "keyframes" else chunk
        buf = buffers[name] = array(typecode, [0]) * rows
        setattr(log, name, buf.buffer_info()[0])
    appends = [
        (getattr(record, name), memoryview(buffers[name]).cast("B"),
         buffers[name].itemsize, count)
        for name, count in _ARRAY_ROWS
    ]
    keyframes = record.keyframes
    code_ptr = code.buffer_info()[0]
    try:
        while True:
            stop = min(state.pos + chunk, max_instructions)
            status = fn(
                code_ptr, len(code) // _N_FIELDS, c_regions, len(regions),
                interval, stop, ctypes.byref(state), ctypes.byref(log),
            )
            for target, view, size, count in appends:
                target.frombytes(view[:getattr(log, count) * size])
            if log.n_skim:
                record.skim_pos.extend(buffers["skim_pos"][:log.n_skim])
                record.skim_target.extend(buffers["skim_target"][:log.n_skim])
            if log.n_keyframes:
                rows = buffers["keyframes"][:log.n_keyframes * _KF_WORDS].tolist()
                for at in range(0, len(rows), _KF_WORDS):
                    row = rows[at:at + _KF_WORDS]
                    keyframes.append((
                        row[0], tuple(row[1:17]),
                        (row[17] != 0, row[18] != 0, row[19] != 0, row[20] != 0),
                        row[21],
                    ))
            if status != _WN_STOPPED or state.pos >= max_instructions:
                break
    finally:
        del views[:]

    regs[:] = list(state.regs)
    flags.n, flags.z, flags.c, flags.v = (bool(f) for f in state.flags)
    cpu.pc = state.pc
    cpu.halted = bool(state.halted)
    return state.pos, state.total
