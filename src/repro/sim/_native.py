"""Optional compiled water-filling kernel for the fluid solver.

The exact progressive water-filling of :mod:`repro.sim.flows` is a tight
scalar loop (bottleneck scan + per-flow freeze bookkeeping) that Python
executes ~100x slower than C.  When a C compiler and ``cffi`` are present,
this module builds a small kernel implementing *exactly* the reference
algorithm (same bottleneck tie-breaking, same clamping) and caches the shared
object under the user's temp directory keyed by a hash of the C source, so
the compiler runs at most once per source revision per machine.

Everything degrades gracefully: if ``cffi`` is missing, no compiler is
available, or the build fails for any reason, :func:`native_lib` returns
``None`` and the caller falls back to the pure-Python ``scalar`` solver.  No
third-party package beyond ``cffi`` (already a CPython dependency chain
staple) is required, and nothing is downloaded.
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import importlib.util
import os
import shlex
import shutil
import sys
import tempfile
from typing import List, Optional, Tuple

from repro.flags import read_flag

C_SOURCE = r"""
#include <math.h>
#include <stdlib.h>
#include <string.h>

/* Status codes shared by every entry point. */
#define WF_OK          0
#define WF_OOM         1

/* Stop reasons reported per block by waterfill_batch. */
#define WF_STOP_BUDGET 0  /* next flow completion is at/after the budget */
#define WF_STOP_GROUP  1  /* a flow group drained (a comm task completed) */
#define WF_STOP_STALL  2  /* no active flow can make progress */
#define WF_STOP_STEPS  3  /* step budget exhausted (executor event guard) */

/* Progressive water-filling rounds over prepared bookkeeping.
 *
 * counts/residual are consumed in place; row_ptr/row_flows bucket each
 * row's flows and may contain inactive entries (they are skipped, which
 * preserves the relative order of the active ones).  `remaining` is the
 * number of unfrozen active flows.  Each round scans for the carrying row
 * with the smallest residual fair share (first row wins ties, matching the
 * reference's registration-order scan), freezes every unfrozen flow
 * crossing it at that share, and retires the frozen flows' contributions.
 *
 * When `level_of` is non-NULL the freeze structure is recorded for the
 * incremental replay in waterfill_batch: level_of[f - f0] is the round a
 * flow froze in, freeze_order[] lists frozen flows in freeze order, and
 * round_log[k] is the freeze_order offset at the start of round k.
 * `round` is the starting round index (0 for a full solve, L for a replay)
 * and `fo_count` the matching freeze_order prefix length; unconstrained
 * (infinite-rate) flows get a level but no freeze_order entry because they
 * subtract nothing.  Returns the round index after the last executed round.
 */
static int waterfill_rounds(int f0, int num_flows, int row0, int num_rows,
                            const int *flow_ptr, const int *flow_rows,
                            const unsigned char *active, double *rates,
                            double *residual, int *counts,
                            const int *row_ptr, const int *row_flows,
                            unsigned char *frozen, int remaining,
                            int round, int *level_of, int *freeze_order,
                            int *round_log, int fo_count)
{
    while (remaining > 0) {
        if (level_of) round_log[round] = fo_count;
        int best = -1;
        double best_share = 0.0;
        for (int r = 0; r < num_rows; r++) {
            if (counts[r] <= 0) continue;
            double share = residual[r] / counts[r];
            if (best < 0 || share < best_share) { best = r; best_share = share; }
        }
        if (best < 0) {
            /* No remaining constraints: unconstrained flows get "infinite"
             * rate; in practice every path has at least one finite link. */
            for (int f = f0; f < f0 + num_flows; f++) {
                if (active && !active[f]) continue;
                if (!frozen[f - f0]) {
                    rates[f] = INFINITY;
                    if (level_of) level_of[f - f0] = round;
                }
            }
            break;
        }
        double share = best_share > 0.0 ? best_share : 0.0;
        for (int k = row_ptr[best]; k < row_ptr[best + 1]; k++) {
            int f = row_flows[k];
            if (active && !active[f]) continue;
            if (frozen[f - f0]) continue;
            frozen[f - f0] = 1;
            rates[f] = share;
            if (level_of) {
                level_of[f - f0] = round;
                freeze_order[fo_count++] = f;
            }
            remaining--;
            for (int j = flow_ptr[f]; j < flow_ptr[f + 1]; j++) {
                int r = flow_rows[j] - row0;
                double v = residual[r] - share;
                residual[r] = v > 0.0 ? v : 0.0;
                counts[r]--;
            }
        }
        round++;
    }
    if (level_of) round_log[round] = fo_count;
    return round;
}

/* Exact max-min progressive water-filling over one block.
 *
 * Inputs are a CSR encoding of the flow->link incidence: flow f traverses
 * rows flow_rows[flow_ptr[f] .. flow_ptr[f+1]-1] (duplicates allowed and
 * counted, like the Python reference); row indices are relative to row0.
 * caps[r] is row r's capacity in bytes/s.  rates[f] receives flow f's
 * max-min fair rate.  All arrays are indexed with *global* flow ids in
 * [f0, f0+num_flows).
 *
 * Rebuilds the per-row bookkeeping (counts, buckets, residual) from the
 * flow set on every call; waterfill_batch maintains the same bookkeeping
 * incrementally instead and must reproduce this solve bit for bit.
 * Scratch buffers are caller-provided; num_flows must be positive.
 */
static void solve_block(int f0, int num_flows, int row0, int num_rows,
                       const int *flow_ptr, const int *flow_rows,
                       const double *caps, double *rates,
                       double *residual, int *counts, int *row_ptr,
                       int *row_flows, int *fill, unsigned char *frozen)
{
    memset(counts, 0, (size_t)num_rows * sizeof(int));
    memset(fill, 0, (size_t)num_rows * sizeof(int));
    for (int f = f0; f < f0 + num_flows; f++) {
        frozen[f - f0] = 0;
        rates[f] = 0.0;
        for (int k = flow_ptr[f]; k < flow_ptr[f + 1]; k++)
            counts[flow_rows[k] - row0]++;
    }
    row_ptr[0] = 0;
    for (int r = 0; r < num_rows; r++) row_ptr[r + 1] = row_ptr[r] + counts[r];
    for (int f = f0; f < f0 + num_flows; f++) {
        for (int k = flow_ptr[f]; k < flow_ptr[f + 1]; k++) {
            int r = flow_rows[k] - row0;
            row_flows[row_ptr[r] + fill[r]++] = f;
        }
    }
    memcpy(residual, caps + row0, (size_t)num_rows * sizeof(double));
    waterfill_rounds(f0, num_flows, row0, num_rows, flow_ptr, flow_rows,
                     NULL, rates, residual, counts, row_ptr, row_flows,
                     frozen, num_flows, 0, NULL, NULL, NULL, 0);
}

/* One-shot solve (the per-event path).  Returns WF_OOM when scratch memory
 * cannot be allocated — the caller is expected to fall back to its Python
 * solver rather than trust the (zeroed) rates. */
int waterfill(int num_flows, int num_rows,
              const int *flow_ptr, const int *flow_rows,
              const double *caps, double *rates)
{
    if (num_flows <= 0) return WF_OK;
    int nnz = flow_ptr[num_flows];
    double *residual = (double *)malloc((size_t)num_rows * sizeof(double));
    int *counts = (int *)malloc((size_t)num_rows * sizeof(int));
    unsigned char *frozen = (unsigned char *)malloc((size_t)num_flows);
    int *row_ptr = (int *)malloc(((size_t)num_rows + 1) * sizeof(int));
    int *row_flows = (int *)malloc((size_t)(nnz > 0 ? nnz : 1) * sizeof(int));
    int *fill = (int *)malloc((size_t)num_rows * sizeof(int));
    int status = WF_OK;
    if (!residual || !counts || !frozen || !row_ptr || !row_flows || !fill) {
        for (int f = 0; f < num_flows; f++) rates[f] = 0.0;
        status = WF_OOM;
        goto done;
    }
    solve_block(0, num_flows, 0, num_rows, flow_ptr, flow_rows, caps,
                rates, residual, counts, row_ptr, row_flows, fill, frozen);
done:
    free(residual); free(counts); free(frozen);
    free(row_ptr); free(row_flows); free(fill);
    return status;
}

/* Folded solve -> next-completion -> advance loop over a batch of
 * independent blocks (one block per simulated configuration), stacked as a
 * block-diagonal CSR.  For each block b the loop exactly mirrors the Python
 * executor's flow branch:
 *
 *   solve rates; find the earliest completion dt (first flow wins exact
 *   ties, in flow order); stop *before* consuming it if the block's budget
 *   (the next timed task) is at or before now+dt; otherwise advance every
 *   flow by dt (remaining -= rate*dt, clamped at zero — note inf*0 -> NaN
 *   -> clamped, matching Python), collect finished flows in flow order,
 *   retire them from their groups, and stop once any group drains (its
 *   owning comm task must complete in Python before anything else moves).
 *
 * Arrays are concatenations over blocks: flows of block b are
 * [block_flows[b], block_flows[b+1]), rows [block_rows[b], block_rows[b+1]).
 * group_of[f] indexes the shared group_left array directly (or -1 for
 * ungrouped flows).  finished[] receives global flow ids, segmented per
 * block at offsets block_flows[b]; finished_count[b], now[b], next_flow[b],
 * steps[b] and stop_reason[b] report each block's outcome.  Returns WF_OOM
 * (without touching any block) when scratch allocation fails.
 *
 * Solver state is carried across the events of a block, and each solve
 * produces rates bit-identical to a fresh solve_block over the active
 * flows:
 *
 *   The buckets are built once over ALL of the block's flows (retiring one
 *   never reshapes them — the rounds skip inactive entries, preserving
 *   active order), and the active traversal counts are maintained as flows
 *   retire.  Each solve also records its freeze structure (level_of /
 *   freeze_order / round_log); the next solve replays rounds [0, L) from
 *   the record — L being the minimum freeze level among the flows retired
 *   since — by re-applying the recorded freezes in their original order
 *   (same shares, same row updates, same clamping: the exact FP operation
 *   sequence the full solve would execute), then runs rounds from L
 *   normally.  Exactness: a retired flow was unfrozen during rounds < L, so
 *   removing it leaves those rounds' residuals untouched and only lowers
 *   counts on non-bottleneck rows, which raises their shares; each earlier
 *   bottleneck's share is unchanged and still first-minimal, so rounds
 *   [0, L) of the re-solve are identical by induction (DESIGN.md §10).
 *
 * solve_rounds[b] receives the total rounds executed for the block,
 * rounds_replayed[b] the rounds inherited from the carried freeze record
 * instead of re-executed.
 */
int waterfill_batch(int num_blocks,
                    const int *block_flows, const int *block_rows,
                    const int *flow_ptr, const int *flow_rows,
                    const double *caps,
                    double *remaining, const double *threshold,
                    const int *group_of, int *group_left,
                    double *now, const double *budget,
                    double *rates, unsigned char *active,
                    int *finished, int *finished_count,
                    double *next_flow, int *steps, int *stop_reason,
                    const int *max_steps,
                    int *solve_rounds, int *rounds_replayed)
{
    int max_nf = 0, max_nr = 0, max_nnz = 0;
    for (int b = 0; b < num_blocks; b++) {
        int nf = block_flows[b + 1] - block_flows[b];
        int nr = block_rows[b + 1] - block_rows[b];
        int nnz = flow_ptr[block_flows[b + 1]] - flow_ptr[block_flows[b]];
        if (nf > max_nf) max_nf = nf;
        if (nr > max_nr) max_nr = nr;
        if (nnz > max_nnz) max_nnz = nnz;
    }
    double *residual = (double *)malloc((size_t)(max_nr > 0 ? max_nr : 1) * sizeof(double));
    int *counts = (int *)malloc((size_t)(max_nr > 0 ? max_nr : 1) * sizeof(int));
    unsigned char *frozen = (unsigned char *)malloc((size_t)(max_nf > 0 ? max_nf : 1));
    int *row_ptr = (int *)malloc(((size_t)max_nr + 1) * sizeof(int));
    int *row_flows = (int *)malloc((size_t)(max_nnz > 0 ? max_nnz : 1) * sizeof(int));
    int *fill = (int *)malloc((size_t)(max_nr > 0 ? max_nr : 1) * sizeof(int));
    int *base_counts = (int *)malloc((size_t)(max_nr > 0 ? max_nr : 1) * sizeof(int));
    int *level_of = (int *)malloc((size_t)(max_nf > 0 ? max_nf : 1) * sizeof(int));
    int *freeze_order = (int *)malloc((size_t)(max_nf > 0 ? max_nf : 1) * sizeof(int));
    int *round_log = (int *)malloc(((size_t)max_nf + 2) * sizeof(int));
    if (!residual || !counts || !frozen || !row_ptr || !row_flows || !fill
        || !base_counts || !level_of || !freeze_order || !round_log) {
        free(residual); free(counts); free(frozen);
        free(row_ptr); free(row_flows); free(fill); free(base_counts);
        free(level_of); free(freeze_order); free(round_log);
        return WF_OOM;
    }

    for (int b = 0; b < num_blocks; b++) {
        int f0 = block_flows[b], f1 = block_flows[b + 1];
        int row0 = block_rows[b], nr = block_rows[b + 1] - block_rows[b];
        double t = now[b];
        int fcount = 0, st = 0;
        int reason = WF_STOP_STALL;
        int active_n = 0;
        int exec_rounds = 0, inherited_rounds = 0;
        int recorded = 0;   /* a freeze record exists for this block */
        int min_level = 0;  /* replay start: min level among retired flows */
        next_flow[b] = INFINITY;
        /* Persistent block bookkeeping: buckets over every flow (so
         * retiring one never reshapes them — the rounds skip inactive
         * entries, preserving active order) and active-only traversal
         * counts, maintained incrementally as flows retire below. */
        memset(counts, 0, (size_t)nr * sizeof(int));
        memset(base_counts, 0, (size_t)nr * sizeof(int));
        for (int f = f0; f < f1; f++) {
            for (int k = flow_ptr[f]; k < flow_ptr[f + 1]; k++)
                counts[flow_rows[k] - row0]++;
            if (!active[f]) continue;
            active_n++;
            for (int k = flow_ptr[f]; k < flow_ptr[f + 1]; k++)
                base_counts[flow_rows[k] - row0]++;
        }
        row_ptr[0] = 0;
        for (int r = 0; r < nr; r++) row_ptr[r + 1] = row_ptr[r] + counts[r];
        memset(fill, 0, (size_t)nr * sizeof(int));
        for (int f = f0; f < f1; f++) {
            for (int k = flow_ptr[f]; k < flow_ptr[f + 1]; k++) {
                int r = flow_rows[k] - row0;
                row_flows[row_ptr[r] + fill[r]++] = f;
            }
        }
        for (;;) {
            if (active_n > 0) {
                int start = recorded ? min_level : 0;
                int prefix = start > 0 ? round_log[start] : 0;
                /* Reconstruct the state at the start of round `start`:
                 * base counts (retired flows already subtracted) and
                 * full residual, then the recorded prefix freezes in
                 * their original order.  Prefix flows all survive —
                 * their level is below every retired flow's. */
                memcpy(counts, base_counts, (size_t)nr * sizeof(int));
                memcpy(residual, caps + row0, (size_t)nr * sizeof(double));
                int unfrozen = active_n;
                for (int f = f0; f < f1; f++) {
                    if (!active[f]) continue;
                    frozen[f - f0] = 0;
                }
                for (int i = 0; i < prefix; i++) {
                    int f = freeze_order[i];
                    double share = rates[f];
                    frozen[f - f0] = 1;
                    unfrozen--;
                    for (int j = flow_ptr[f]; j < flow_ptr[f + 1]; j++) {
                        int r = flow_rows[j] - row0;
                        double v = residual[r] - share;
                        residual[r] = v > 0.0 ? v : 0.0;
                        counts[r]--;
                    }
                }
                for (int f = f0; f < f1; f++) {
                    if (!active[f] || frozen[f - f0]) continue;
                    rates[f] = 0.0;
                }
                int total = waterfill_rounds(f0, f1 - f0, row0, nr,
                                             flow_ptr, flow_rows, active,
                                             rates, residual, counts,
                                             row_ptr, row_flows, frozen,
                                             unfrozen, start, level_of,
                                             freeze_order, round_log,
                                             prefix);
                exec_rounds += total - start;
                inherited_rounds += start;
                recorded = 1;
                min_level = total;
            }
            /* Earliest completion: strict < keeps the first flow on exact
             * ties, like the Python dict scan. */
            int found = 0;
            double dt = 0.0;
            for (int f = f0; f < f1; f++) {
                if (!active[f] || !(rates[f] > 0.0)) continue;
                double d = remaining[f] / rates[f];
                if (!found || d < dt) { found = 1; dt = d; }
            }
            if (!found) { reason = WF_STOP_STALL; break; }
            double at = t + dt;
            /* budget == INFINITY encodes "no timed event pending": the
             * Python loop then always takes the flow branch, even when dt
             * itself overflows to infinity. */
            if (budget[b] != INFINITY && budget[b] <= at) {
                reason = WF_STOP_BUDGET;
                next_flow[b] = at;
                break;
            }
            if (st >= max_steps[b]) { reason = WF_STOP_STEPS; break; }
            int group_done = 0;
            for (int f = f0; f < f1; f++) {
                if (!active[f]) continue;
                if (rates[f] > 0.0) {
                    double v = remaining[f] - rates[f] * dt;
                    remaining[f] = v > 0.0 ? v : 0.0;
                }
                if (remaining[f] <= threshold[f]) {
                    finished[f0 + fcount++] = f;
                    active[f] = 0;
                    active_n--;
                    for (int j = flow_ptr[f]; j < flow_ptr[f + 1]; j++)
                        base_counts[flow_rows[j] - row0]--;
                    if (level_of[f - f0] < min_level)
                        min_level = level_of[f - f0];
                    int g = group_of[f];
                    if (g >= 0 && --group_left[g] == 0) group_done = 1;
                }
            }
            t = at;
            st++;
            if (group_done) { reason = WF_STOP_GROUP; break; }
        }
        now[b] = t;
        finished_count[b] = fcount;
        steps[b] = st;
        stop_reason[b] = reason;
        solve_rounds[b] = exec_rounds;
        rounds_replayed[b] = inherited_rounds;
    }

    free(residual); free(counts); free(frozen);
    free(row_ptr); free(row_flows); free(fill); free(base_counts);
    free(level_of); free(freeze_order); free(round_log);
    return WF_OK;
}
"""

CDEF = """
int waterfill(int num_flows, int num_rows,
              const int *flow_ptr, const int *flow_rows,
              const double *caps, double *rates);
int waterfill_batch(int num_blocks,
                    const int *block_flows, const int *block_rows,
                    const int *flow_ptr, const int *flow_rows,
                    const double *caps,
                    double *remaining, const double *threshold,
                    const int *group_of, int *group_left,
                    double *now, const double *budget,
                    double *rates, unsigned char *active,
                    int *finished, int *finished_count,
                    double *next_flow, int *steps, int *stop_reason,
                    const int *max_steps,
                    int *solve_rounds, int *rounds_replayed);
"""

_LOADED: Optional[Tuple[object, object]] = None
_LOAD_FAILED = False


def _extra_build_args() -> List[str]:
    """Extra compile/link flags from the declared ``REPRO_NATIVE_CFLAGS``.

    Lets CI harden the kernel (``-fsanitize=address,undefined``) without a
    separate build system; the flags participate in :func:`_build_dir`'s
    cache key so instrumented and plain shared objects never collide.
    """
    return shlex.split(read_flag("REPRO_NATIVE_CFLAGS"))


def _build_dir() -> str:
    fingerprint = C_SOURCE + "\x00" + " ".join(_extra_build_args())
    tag = hashlib.sha256(fingerprint.encode("utf-8")).hexdigest()[:12]
    python_tag = f"cp{sys.version_info.major}{sys.version_info.minor}"
    return os.path.join(
        tempfile.gettempdir(), f"repro-waterfill-{python_tag}-{tag}"
    )


def _module_name() -> str:
    return "_repro_waterfill"


def _find_shared_object(directory: str) -> Optional[str]:
    matches = sorted(glob.glob(os.path.join(directory, f"{_module_name()}*.so")))
    if not matches:
        matches = sorted(glob.glob(os.path.join(directory, f"{_module_name()}*.pyd")))
    return matches[0] if matches else None


@contextlib.contextmanager
def _compile_lock(directory: str):
    """Exclusive cross-process lock serialising kernel builds.

    N freshly spawned sweep workers can all find no shared object and enter
    :func:`_compile` at once; without the lock their builds race (and on
    pid reuse even share a staging dir).  ``flock`` serialises them — the
    losers re-check for the winner's published artifact under the lock.  On
    platforms without ``fcntl`` the lock degrades to a no-op, restoring the
    previous last-writer-wins behaviour.
    """
    try:
        import fcntl
    except ImportError:  # pragma: no cover — non-posix fallback
        yield
        return
    with open(f"{directory}.lock", "a+b") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)


def _compile() -> Optional[str]:
    from cffi import FFI

    directory = _build_dir()
    with _compile_lock(directory):
        # Another process may have built and published while we waited on
        # the lock; its artifact is complete (publication is atomic).
        existing = _find_shared_object(directory)
        if existing is not None:
            return existing
        # Build in a process-private staging dir, then publish the .so
        # atomically so readers never observe a half-written artifact.
        staging = f"{directory}.build.{os.getpid()}"
        os.makedirs(staging, exist_ok=True)
        try:
            ffi = FFI()
            ffi.cdef(CDEF)
            extra = _extra_build_args()
            ffi.set_source(
                _module_name(),
                C_SOURCE,
                extra_compile_args=extra or None,
                extra_link_args=extra or None,
            )
            built = ffi.compile(tmpdir=staging, verbose=False)
            os.makedirs(directory, exist_ok=True)
            target = os.path.join(directory, os.path.basename(built))
            os.replace(built, target)
            return target
        finally:
            shutil.rmtree(staging, ignore_errors=True)


def native_lib() -> Optional[Tuple[object, object]]:
    """Return ``(lib, ffi)`` for the compiled kernel, or ``None``.

    The first call per process may compile (seconds); later calls are cached.
    A failed build is remembered so the fallback path is not retried per call.
    """
    global _LOADED, _LOAD_FAILED
    if _LOADED is not None:
        return _LOADED
    if _LOAD_FAILED:
        return None
    try:
        shared_object = _find_shared_object(_build_dir())
        if shared_object is None:
            shared_object = _compile()
        if shared_object is None:
            raise RuntimeError("no shared object produced")
        spec = importlib.util.spec_from_file_location(_module_name(), shared_object)
        if spec is None or spec.loader is None:
            raise ImportError(f"cannot load {shared_object}")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        _LOADED = (module.lib, module.ffi)
        return _LOADED
    except Exception:
        _LOAD_FAILED = True
        return None


def native_available() -> bool:
    return native_lib() is not None
