#!/usr/bin/env python3
"""Self-test for hostprof: profiles demo.cc and checks the folded shares.

    python3 selftest.py <libhostprof.so> <hostprof_demo>
"""

import glob
import os
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    lib, demo = sys.argv[1:3]
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, LD_PRELOAD=lib,
                   HOSTPROF_OUT=os.path.join(tmp, "prof"))
        subprocess.run([demo], env=env, check=True, stdout=subprocess.DEVNULL)
        files = glob.glob(os.path.join(tmp, "prof.*.txt"))
        if len(files) != 1:
            sys.exit(f"expected one profile, found {files}")
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "fold.py"), files[0],
             "--match", "spin=DemoSpin", "--match", "copy=<- .*DemoCopy"],
            check=True, capture_output=True, text=True).stdout
    print(out)
    shares = {m[1]: float(m[0]) for m in
              re.findall(r"^\s+([\d.]+)%\s+(spin|copy)$", out, re.M)}
    samples = int(out.split()[0])
    # ~0.5 s of CPU is ~140 samples at HZ=250 (~50 at HZ=100), split
    # about evenly between the two.
    ok = samples >= 20 and shares.get("spin", 0) > 20 and \
        shares.get("copy", 0) > 20
    if not ok:
        sys.exit(f"unexpected shares {shares} over {samples} samples")


if __name__ == "__main__":
    main()
