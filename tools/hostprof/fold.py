#!/usr/bin/env python3
"""Folds a hostprof sample file into per-function and per-file shares.

    python3 tools/hostprof/fold.py PROFILE [--match NAME=REGEX ...]

PROFILE is the "<HOSTPROF_OUT>.<pid>.txt" file libhostprof.so wrote (see
hostprof.cc). Each sample's program counter is mapped through the recorded
/proc/self/maps to an object file and an ELF virtual address, then
symbolized with `addr2line -a -f -i -C`, which also lists the chain of
functions inlined at that address. Build the program with -g (Release
flags plus -g keep the optimized code and add line tables): frames
without line info show as their object's name only.

A sample whose PC is in code without line info (libc's memcpy, typically)
is charged to the caller named by the sample's return-address word, as
"<routine> <- <caller>", when that caller has line info.

Printed tables, largest first (the top 30 rows of each):
  * by function: the innermost frame of each sample (inlined frames count
    as functions), with its source file;
  * by source file: the same samples grouped by that frame's file;
  * --match NAME=REGEX (repeatable): the share of samples with any frame
    of the chain whose function matches REGEX, e.g.
    --match 'heap sifts=std::__(adjust|push)_heap'.
"""

import argparse
import bisect
import collections
import os
import re
import signal
import struct
import subprocess
import sys

TOP_ROWS = 30
NAME_WIDTH = 90  # function names are truncated to this many characters


def parse_profile(path):
    samples, maps = [], []
    with open(path) as f:
        for line in f:
            if line.startswith("S "):
                _, pc, ret = line.split()
                samples.append((int(pc, 16), int(ret, 16)))
            elif line.startswith("M "):
                fields = line[2:].split(maxsplit=5)
                if len(fields) < 6 or "x" not in fields[1]:
                    continue  # only executable mappings hold code
                lo, hi = (int(x, 16) for x in fields[0].split("-"))
                maps.append((lo, hi, int(fields[2], 16), fields[5].strip()))
    return samples, sorted(maps)


def load_segments(path):
    """(p_offset, p_vaddr, p_filesz) of each PT_LOAD segment of an ELF64."""
    try:
        with open(path, "rb") as f:
            ident = f.read(64)
            if ident[:4] != b"\x7fELF" or ident[4] != 2:
                return []
            endian = "<" if ident[5] == 1 else ">"
            phoff, = struct.unpack_from(endian + "Q", ident, 32)
            phentsize, phnum = struct.unpack_from(endian + "HH", ident, 54)
            f.seek(phoff)
            table = f.read(phentsize * phnum)
    except OSError:
        return []
    segments = []
    for i in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
            endian + "IIQQQQ", table, i * phentsize)
        if p_type == 1:
            segments.append((p_offset, p_vaddr, p_filesz))
    return segments


class Resolver:
    """Maps runtime addresses to (object, ELF vaddr) and symbolizes them."""

    def __init__(self, maps):
        self.maps = maps
        self.starts = [m[0] for m in maps]
        self.segments = {}
        self.frames = {}  # (object, vaddr) -> [(function, file), ...]

    def locate(self, addr):
        i = bisect.bisect_right(self.starts, addr) - 1
        if i < 0:
            return None
        lo, hi, offset, path = self.maps[i]
        if addr >= hi or not path.startswith("/"):
            return None
        file_off = addr - lo + offset
        if path not in self.segments:
            self.segments[path] = load_segments(path)
        for p_offset, p_vaddr, p_filesz in self.segments[path]:
            if p_offset <= file_off < p_offset + p_filesz:
                return path, file_off - p_offset + p_vaddr
        return None

    def symbolize(self, locations):
        by_object = collections.defaultdict(set)
        for loc in locations:
            if loc is not None and loc not in self.frames:
                by_object[loc[0]].add(loc[1])
        for path, vaddrs in by_object.items():
            ordered = sorted(vaddrs)
            query = "".join(f"{v:#x}\n" for v in ordered)
            try:
                out = subprocess.run(
                    ["addr2line", "-a", "-f", "-i", "-C", "-e", path],
                    input=query, capture_output=True, text=True,
                    check=False).stdout
            except OSError as err:
                sys.exit(f"fold.py: cannot run addr2line: {err}")
            self._parse(path, ordered, out.splitlines())

    def _parse(self, path, ordered, lines):
        # Each address prints "0x<addr>" followed by (function, file:line)
        # pairs, innermost inline frame first.
        blocks, current = [], None
        for line in lines:
            if re.fullmatch(r"0x[0-9a-f]+", line):
                current = []
                blocks.append(current)
            elif current is not None:
                current.append(line)
        # A frame without line info keeps "[<object>]" as its file.
        obj = f"[{os.path.basename(path)}]"
        for vaddr, block in zip(ordered, blocks):
            chain = []
            for fn, where in zip(block[0::2], block[1::2]):
                if fn == "??":
                    continue
                src = where.rsplit(":", 1)[0]
                if src.startswith("??"):
                    # Without line info the nearest exported symbol can be
                    # far off (libc's memcpy variants are not exported).
                    fn, src = obj, obj
                chain.append((fn, src))
            self.frames[(path, vaddr)] = chain or [(obj, obj)]

    def chain(self, loc):
        return self.frames.get(loc) if loc is not None else None


def shorten(name):
    return name if len(name) <= NAME_WIDTH else name[:NAME_WIDTH - 3] + "..."


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("profile")
    ap.add_argument("--match", action="append", default=[],
                    metavar="NAME=REGEX")
    args = ap.parse_args()
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)  # quiet under `| head`

    samples, maps = parse_profile(args.profile)
    if not samples:
        sys.exit(f"fold.py: no samples in {args.profile}")
    res = Resolver(maps)
    pcs = [res.locate(pc) for pc, _ in samples]
    rets = [res.locate(ret) for _, ret in samples]
    res.symbolize(pcs + rets)

    chains = []
    for pc_loc, ret_loc in zip(pcs, rets):
        chain = res.chain(pc_loc)
        if chain is None:
            chains.append([("[unknown]", "[unknown]")])
            continue
        caller = res.chain(ret_loc)
        if (all(src.startswith("[") for _, src in chain) and caller
                and not caller[0][1].startswith("[")):
            # A routine without line info (libc's memcpy): charge it to
            # the caller its return address names.
            chain = [(f"{chain[0][0]} <- {caller[0][0]}", caller[0][1]),
                     *chain, *caller]
        chains.append(chain)

    total = len(chains)
    print(f"{total} samples in {args.profile}")
    by_fn = collections.Counter((c[0][0], c[0][1]) for c in chains)
    by_file = collections.Counter(c[0][1] for c in chains)
    print("\nby function (innermost frame):")
    for (fn, src), n in by_fn.most_common(TOP_ROWS):
        where = src if src.startswith("[") else f"[{os.path.basename(src)}]"
        print(f"  {100 * n / total:6.2f}%  {shorten(fn)}  "
              f"{where}")
    print("\nby source file:")
    for src, n in by_file.most_common(TOP_ROWS):
        print(f"  {100 * n / total:6.2f}%  {src}")
    if args.match:
        print("\nsamples with any frame matching:")
    for spec in args.match:
        name, _, pattern = spec.partition("=")
        regex = re.compile(pattern or name)
        n = sum(1 for c in chains if any(regex.search(fn) for fn, _ in c))
        print(f"  {100 * n / total:6.2f}%  {name}")


if __name__ == "__main__":
    main()
