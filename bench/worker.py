"""One benchmark run in a fresh interpreter.

Reads a job as JSON on stdin and writes one JSON result on stdout. The job
holds the mode and the keyword arguments of the ``SyntheticSpec`` and the
``ExperimentConfig``; the package receives nothing else. Modes:

* ``setup``: import ``fairexp`` and load the datasets, then stop, and
  report the numpy and BLAS build;
* ``untraced``: run the experiment with one timestamp per round
  (``RoundClock``);
* ``traced``: run the experiment with spans and counts for every traced
  function (``Tracer``).

``setup_s`` runs from the first line of this file, before ``import
fairexp``, to the return of ``harness.load_datasets``. A run that raises
or fails an output check, or whose ``fairexp`` does not import from this
checkout, is reported as a failed run, not hidden.
"""

import time

T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def import_program():
    """Import ``fairexp`` from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import fairexp

    if Path(fairexp.__file__).resolve().parent != SRC / "fairexp":
        raise ImportError(f"fairexp imported from {fairexp.__file__}, not from {SRC}")
    return fairexp


def run(fairexp, job: dict) -> dict:
    from fairexp import harness
    from fairexp.data import SyntheticSpec

    spec = SyntheticSpec(**job["spec"])
    config = harness.ExperimentConfig(synthetic=spec, **job["config"])
    _, _, test = harness.load_datasets(config)
    out = {"setup_s": time.perf_counter() - T0}
    import numpy as np

    if job["mode"] == "setup":
        out["numpy"] = np.__version__
        try:  # show_config(mode=...) and this layout arrived with numpy 1.26
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
            out["blas"] = f"{blas.get('name')} {blas.get('version')}"
        except Exception:
            out["blas"] = "unknown"
        return out

    sys.path.insert(0, str(BENCH))
    from checks import check_result
    from tracer import RoundClock, Tracer, snapshot

    originals = snapshot(fairexp)
    instrument = Tracer() if job["mode"] == "traced" else RoundClock()
    with instrument.installed(fairexp):
        result = harness.run_experiment(config)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = check_result(result, test, config)
    if snapshot(fairexp) != originals:
        problems.append("instrumentation left a wrapper installed")
    stamps = instrument.stamps if job["mode"] == "untraced" else instrument.loop_stamps()
    out.update(
        problems=problems,
        round_s=np.diff(stamps).tolist(),
        summary=result.summary,
        trace_sha256=_digest(Path(config.out_dir) / "trace.csv"),
        summary_sha256=_digest(Path(config.out_dir) / "summary.txt"),
    )
    if job["mode"] == "traced":
        out["layers"] = instrument.layer_times()
        out["counts"] = instrument.counts()
        np.save(Path(config.out_dir) / "spans.npy", instrument.span_array())
    return out


def main() -> int:
    job = json.loads(sys.stdin.read())
    try:
        out = run(import_program(), job)
    except Exception as exc:  # the run itself failed: report it as a failed operation
        out = {"error": f"{type(exc).__name__}: {exc}", "traceback": traceback.format_exc()}
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
