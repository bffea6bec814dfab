"""Bit-exact binary snapshots of velocity states.

Layout (all integers little-endian):

    magic   4 bytes  b"HSN1"
    version u32      currently 1
    nx, ny, nz u32
    field_count u32
    per field:
        name_len u32, name UTF-8, parity u8 (0 even, 1 odd, 2 none),
        coefficients as interleaved (real, imag) float64 pairs in
        kx-major (C) order, nx*ny*nz entries
    crc u32          CRC32 of the payload (everything after the magic)

The coefficients on disk are the full cube in numpy FFT order on every axis.
In memory a field holds only its kz >= 0 half, so save_snapshot writes that
half together with its conjugate mirror, and load_snapshot keeps the first
nz//2 + 1 kz planes.

The simulation time rides along as an extra field named "time" (parity
"none") whose first coefficient holds the value, so the stated layout covers
the whole state.  The fields are v1, v2, w and time, each at most once; a
name that is not UTF-8, not one of these, or repeated is a FormatError.
"""
from __future__ import annotations

import struct
import zlib

import numpy as np

from ..errors import FormatError
from ..fields import VelocityState
from ..spectral import (
    NONE,
    _PARITY_CODES,
    _PARITY_FROM_CODE,
    Grid,
    SpectralField,
    _raw_hflip,
    make_grid,
)

MAGIC = b"HSN1"
VERSION = 1
TIME_FIELD = "time"
FIELD_NAMES = ("v1", "v2", "w", TIME_FIELD)


def _encode_field(name: str, parity: str, coeffs: np.ndarray) -> bytes:
    nb = name.encode("utf-8")
    arr = np.ascontiguousarray(coeffs, dtype="<c16")
    return (
        struct.pack("<I", len(nb))
        + nb
        + struct.pack("<B", _PARITY_CODES[parity])
        + arr.tobytes()
    )


def _full_cube(grid: Grid, c: np.ndarray) -> np.ndarray:
    """The (nx, ny, nz) coefficients of a real field from its kz >= 0 half:
    mode -kz at index nz - kz is conj(c[-kx, -ky, kz])."""
    mirror = np.conjugate(_raw_hflip(grid, c[..., 1:-1]))[..., ::-1]
    return np.concatenate((c, mirror), axis=-1)


def save_snapshot(state: VelocityState, path: str) -> None:
    """Write the state (coefficients, parity flags, grid, time) to path."""
    g = state.grid
    tfield = np.zeros(g.shape, dtype=np.complex128)
    tfield.flat[0] = state.time
    fields = [
        ("v1", state.v1.parity, _full_cube(g, state.v1.coeffs)),
        ("v2", state.v2.parity, _full_cube(g, state.v2.coeffs)),
        ("w", state.w.parity, _full_cube(g, state.w.coeffs)),
        (TIME_FIELD, NONE, tfield),
    ]
    payload = struct.pack("<IIIII", VERSION, g.nx, g.ny, g.nz, len(fields))
    for name, parity, coeffs in fields:
        payload += _encode_field(name, parity, coeffs)
    with open(path, "wb") as fh:
        fh.write(MAGIC + payload + struct.pack("<I", zlib.crc32(payload)))


def _need(buf: bytes, offset: int, n: int) -> bytes:
    if offset + n > len(buf):
        raise FormatError(f"truncated file: need {n} bytes at offset {offset}", offset)
    return buf[offset : offset + n]


def load_snapshot(path: str) -> VelocityState:
    """Read a snapshot back; raises FormatError with the failing offset."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if _need(buf, 0, 4) != MAGIC:
        raise FormatError(f"bad magic {buf[:4]!r}", 0)
    if len(buf) < 8:
        raise FormatError("truncated file: missing CRC", len(buf))
    payload = buf[4:-4]
    (crc_stored,) = struct.unpack("<I", buf[-4:])
    if zlib.crc32(payload) != crc_stored:
        raise FormatError("CRC mismatch", len(buf) - 4)

    off = 4
    version, nx, ny, nz, count = struct.unpack("<IIIII", _need(buf, off, 20))
    if version != VERSION:
        raise FormatError(f"unsupported version {version}", off)
    off += 20
    try:
        grid = make_grid(int(nx), int(ny), int(nz))
    except Exception as exc:
        raise FormatError(f"bad grid sizes ({nx}, {ny}, {nz}): {exc}", 8)
    n_coeff = nx * ny * nz

    fields: dict[str, SpectralField | float] = {}  # the time as a float
    for _ in range(count):
        (name_len,) = struct.unpack("<I", _need(buf, off, 4))
        off += 4
        try:
            name = _need(buf, off, name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError("field name is not UTF-8", off) from None
        if name not in FIELD_NAMES or name in fields:
            what = "duplicate" if name in fields else "unknown"
            raise FormatError(f"{what} field {name!r}", off)
        off += name_len
        (pcode,) = struct.unpack("<B", _need(buf, off, 1))
        off += 1
        if pcode not in _PARITY_FROM_CODE:
            raise FormatError(f"bad parity code {pcode}", off - 1)
        raw = _need(buf, off, 16 * n_coeff)
        off += 16 * n_coeff
        coeffs = np.frombuffer(raw, dtype="<c16").reshape(nx, ny, nz)
        if name == TIME_FIELD:
            fields[name] = float(coeffs.flat[0].real)
        else:
            half = coeffs[..., : nz // 2 + 1].copy()
            fields[name] = SpectralField(grid, half, _PARITY_FROM_CODE[pcode])
    if off != len(buf) - 4:
        raise FormatError(f"{len(buf) - 4 - off} unexpected trailing bytes", off)
    for required in ("v1", "v2", "w"):
        if required not in fields:
            raise FormatError(f"missing field {required!r}", off)
    return VelocityState(fields["v1"], fields["v2"], fields["w"],
                         fields.get(TIME_FIELD, 0.0))
