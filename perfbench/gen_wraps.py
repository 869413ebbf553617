#!/usr/bin/env python3
"""Generates link-time MPI_* trampolines for the traced benchmark build.

    python3 gen_wraps.py <libxmpi archive> <out wraps.cpp> <out wraps.rsp>

`xmpi/mpi.h` gives the MPI entry points C++ linkage, so `ld --wrap` must name
their mangled symbols. This script lists every `MPI_*` function the archive
defines, demangles it to recover the parameter types, and writes
  - wraps.cpp: for each symbol S, a `__wrap_S` that opens an MPI span around a
    call to `__real_S` (which the linker binds to the library's S);
  - wraps.rsp: the matching `-Wl,--wrap=S` flags, one per line.
Only the outermost MPI call per thread is recorded (see spans.hpp).
"""
import re
import subprocess
import sys

MANGLED = re.compile(r"^_Z\d+MPI_")


def split_params(params):
    """Splits a demangled parameter list at top-level commas."""
    out, depth, cur = [], 0, ""
    for ch in params:
        if ch in "(<[":
            depth += 1
        elif ch in ")>]":
            depth -= 1
        if ch == "," and depth == 0:
            out.append(cur.strip())
            cur = ""
        else:
            cur += ch
    if cur.strip():
        out.append(cur.strip())
    return out


def main():
    archive, cpp_out, rsp_out = sys.argv[1:4]
    nm = subprocess.run(["nm", "--defined-only", "-g", archive], check=True,
                        capture_output=True, text=True).stdout
    symbols = sorted({parts[2] for parts in (line.split() for line in nm.splitlines())
                      if len(parts) == 3 and parts[1] == "T" and MANGLED.match(parts[2])})
    demangled = subprocess.run(["c++filt"], input="\n".join(symbols), check=True,
                               capture_output=True, text=True).stdout.splitlines()
    lines = [
        "// Generated by perfbench/gen_wraps.py; do not edit.",
        "#include <type_traits>",
        '#include "spans.hpp"',
        '#include "xmpi/mpi.h"',
        "",
    ]
    flags = []
    for i, (sym, sig) in enumerate(zip(symbols, demangled)):
        m = re.match(r"^(MPI_\w+)\((.*)\)$", sig)
        if not m:
            continue
        name, params = m.group(1), split_params(m.group(2))
        if params == ["void"]:
            params = []
        types = [f"std::type_identity_t<{p}>" for p in params]
        decl = ", ".join(f"{t} a{k}" for k, t in enumerate(types))
        args = ", ".join(f"a{k}" for k in range(len(types)))
        ret = f"std::invoke_result_t<decltype(&::{name}){''.join(', ' + t for t in types)}>"
        lines += [
            f"using ret_{i} = {ret};",
            f'extern ret_{i} real_{i}({", ".join(types)}) __asm__("__real_{sym}");',
            f'ret_{i} wrap_{i}({decl}) __asm__("__wrap_{sym}");',
            f"ret_{i} wrap_{i}({decl}) {{",
            f'    perfbench::trace::mpi_enter("{name}");',
            f"    ret_{i} const rc = real_{i}({args});",
            "    perfbench::trace::mpi_exit();",
            "    return rc;",
            "}",
            "",
        ]
        flags.append(f"-Wl,--wrap={sym}")
    with open(cpp_out, "w") as f:
        f.write("\n".join(lines))
    with open(rsp_out, "w") as f:
        f.write("\n".join(flags) + "\n")


if __name__ == "__main__":
    main()
