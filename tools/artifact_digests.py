"""SHA-256 digests of the CLI's artifacts at the default configs.

    python3 tools/artifact_digests.py OUTDIR

Runs the CLI of the package in ../src: `generate` for every benchmark, each
into its own `data/<benchmark>/` directory so that each gets its own
manifest, then `discover` and `baseline` (STLSQ at its default threshold,
and TrainSTRidge) for kdv, burgers-hyper, modified-ks, and the rd2d fields
u and v, and a small `sweep` (2 noise levels, n = 1000, 2 seeds) on kdv.
It then prints `sha256  path` for every file it wrote under OUTDIR
except the `manifest.json` files, which record the environment, and
`sha256  path#config` for the `config` entry alone of each `manifest.json`
(its canonical JSON, so a change to a recipe or a benchmark config shows
without the environment), sorted by path.

Two checkouts that print the same lines wrote the same bytes. The BLAS
thread count moves round-off in the factorizations, so compare runs made
with the same setting, such as OPENBLAS_NUM_THREADS=1.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
BENCHMARKS = ("kdv", "burgers-hyper", "modified-ks", "rd2d")
# (benchmark, target field) of every discovery and baseline run
TARGETS = (("kdv", "u"), ("burgers-hyper", "u"), ("modified-ks", "u"),
           ("rd2d", "u"), ("rd2d", "v"))


def bgsindy(*argv: str) -> None:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    subprocess.run([sys.executable, "-m", "bgsindy.cli", *argv], env=env, check=True,
                   stdout=subprocess.DEVNULL)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out = Path(argv[0])
    for benchmark in BENCHMARKS:
        bgsindy("generate", benchmark, "--out", str(out / "data" / benchmark))
    for benchmark, target in TARGETS:
        run = [f"--data={out / 'data' / benchmark / benchmark}", f"--benchmark={benchmark}",
               f"--target={target}"]
        name = f"{benchmark}-{target}"
        bgsindy("discover", *run, f"--out={out / 'discover' / name}")
        for method in ("stlsq", "stridge"):
            bgsindy("baseline", f"--method={method}", *run,
                    f"--out={out / 'baseline' / method / name}")
    bgsindy("sweep", f"--data={out / 'data' / 'kdv' / 'kdv'}", "--noise=0:0.05:2",
            "--samples=1000", "--seeds=2", f"--out={out / 'sweep'}")
    digests = {}
    for path in (p for p in out.rglob("*") if p.is_file()):
        name = path.relative_to(out).as_posix()
        if path.name == "manifest.json":
            config = json.loads(path.read_text())["config"]
            name, data = name + "#config", json.dumps(config, sort_keys=True,
                                                      separators=(",", ":")).encode()
        else:
            data = path.read_bytes()
        digests[name] = hashlib.sha256(data).hexdigest()
    for name in sorted(digests):
        print(f"{digests[name]}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
