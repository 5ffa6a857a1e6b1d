"""Correctness gate over a run's results.

Every check takes plain result records — dicts shaped like
``SweepResult.to_dict()``: a ``config`` dict (the ``SweepConfig`` fields)
plus the numeric result fields — and returns a list of error strings; an
empty list means the check passed.  The gate runs outside the timed passes.
"""

from __future__ import annotations

import math
import shutil
import sysconfig
from typing import Dict, Iterable, List, Sequence, Tuple

#: Relative tolerance of every comparison.
RTOL = 1e-9

#: Fields the reference solver must reproduce.
ORACLE_FIELDS = ("iteration_time_s", "stage_time_s", "comm_bytes")

#: Fields that must be finite and strictly positive in every result.
POSITIVE_FIELDS = (
    "iteration_time_s",
    "stage_time_s",
    "comm_bytes",
    "compute_time_s",
    "tokens_per_second",
)

#: Fields that must be finite (they may be zero, e.g. no reconfiguration).
FINITE_FIELDS = POSITIVE_FIELDS + (
    "dp_allreduce_s",
    "pp_transfer_s",
    "reconfig_blocking_s",
)

#: (slower, faster) failure pairs: the first may never beat the second.
#: ``nic:1 >= none`` and ``nic:2 >= nic:1`` are left out: on about 0.3% of
#: (model, policy, seed) triples of the Figure 14 grid one more failed NIC
#: gives a slightly faster iteration (up to 0.12%, same bytes), so those
#: pairs fail on some seeds only (see CHANGES.md).
FAILURE_ORDER = (("nic:2", "none"), ("server", "gpu"), ("gpu", "none"))


def _label(record: Dict[str, object]) -> str:
    config = record["config"]
    return (
        f"{config['model']}/{config['fabric']}/{config['first_a2a_policy']}/"
        f"{config['failure']}/{config['nic_bandwidth_gbps']:g}Gbps/seed{config['seed']}"
    )


def _key_without(record: Dict[str, object], axis: str) -> Tuple:
    config = record["config"]
    return tuple(sorted((k, v) for k, v in config.items() if k != axis))


def _group_by(records: Iterable[Dict[str, object]], axis: str) -> Dict[Tuple, Dict[object, Dict]]:
    groups: Dict[Tuple, Dict[object, Dict]] = {}
    for record in records:
        groups.setdefault(_key_without(record, axis), {})[record["config"][axis]] = record
    return groups


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b))


def _at_least(slow: float, fast: float) -> bool:
    return slow >= fast * (1.0 - RTOL)


def check_finite_positive(records: Sequence[Dict[str, object]]) -> List[str]:
    errors = []
    for record in records:
        for field in FINITE_FIELDS:
            value = record[field]
            if not math.isfinite(value):
                errors.append(f"{_label(record)}: {field}={value!r} is not finite")
            elif field in POSITIVE_FIELDS and value <= 0.0:
                errors.append(f"{_label(record)}: {field}={value!r} is not positive")
    return errors


def check_compute_floor(records: Sequence[Dict[str, object]]) -> List[str]:
    return [
        f"{_label(r)}: iteration_time_s={r['iteration_time_s']!r} < "
        f"compute_time_s={r['compute_time_s']!r}"
        for r in records
        if not _at_least(r["iteration_time_s"], r["compute_time_s"])
    ]


def check_bandwidth(records: Sequence[Dict[str, object]]) -> List[str]:
    """Bytes do not depend on bandwidth; more bandwidth is never slower."""
    errors = []
    for members in _group_by(records, "nic_bandwidth_gbps").values():
        ordered = [members[bw] for bw in sorted(members)]
        for low, high in zip(ordered, ordered[1:]):
            if low["comm_bytes"] != high["comm_bytes"]:
                errors.append(
                    f"{_label(high)}: comm_bytes={high['comm_bytes']!r} differs from "
                    f"{low['comm_bytes']!r} at {low['config']['nic_bandwidth_gbps']:g}Gbps"
                )
            if not _at_least(low["iteration_time_s"], high["iteration_time_s"]):
                errors.append(
                    f"{_label(high)}: iteration_time_s={high['iteration_time_s']!r} is "
                    f"slower than {low['iteration_time_s']!r} at "
                    f"{low['config']['nic_bandwidth_gbps']:g}Gbps"
                )
    return errors


def check_oversubscription(records: Sequence[Dict[str, object]]) -> List[str]:
    """The 3:1 over-subscribed Fat-tree is never faster than the Fat-tree."""
    errors = []
    for members in _group_by(records, "fabric").values():
        full, over = members.get("Fat-tree"), members.get("OverSub. Fat-tree")
        if full is not None and over is not None and not _at_least(
            over["iteration_time_s"], full["iteration_time_s"]
        ):
            errors.append(
                f"{_label(over)}: iteration_time_s={over['iteration_time_s']!r} beats "
                f"Fat-tree's {full['iteration_time_s']!r}"
            )
    return errors


def check_failure_order(records: Sequence[Dict[str, object]]) -> List[str]:
    """On MixNet a failure is never faster than the milder (or no) failure.

    MixNet only: the electrical fabrics swap a failed server for a backup at
    no cost while a failed GPU still slows its TP group, so there a server
    failure legitimately beats a GPU failure.
    """
    errors = []
    mixnet = [record for record in records if record["config"]["fabric"] == "MixNet"]
    for members in _group_by(mixnet, "failure").values():
        for slower, faster in FAILURE_ORDER:
            slow, fast = members.get(slower), members.get(faster)
            if slow is not None and fast is not None and not _at_least(
                slow["iteration_time_s"], fast["iteration_time_s"]
            ):
                errors.append(
                    f"{_label(slow)}: iteration_time_s={slow['iteration_time_s']!r} "
                    f"beats {faster}'s {fast['iteration_time_s']!r}"
                )
    return errors


def check_oracle(
    pairs: Sequence[Tuple[Dict[str, object], Dict[str, object]]]
) -> List[str]:
    """Timed results agree with the scalar reference solver's."""
    errors = []
    for timed, reference in pairs:
        for field in ORACLE_FIELDS:
            if not _close(timed[field], reference[field]):
                errors.append(
                    f"{_label(timed)}: {field}={timed[field]!r} but the scalar "
                    f"reference gives {reference[field]!r}"
                )
    return errors


def compiler_present() -> bool:
    """Whether the host has the C compiler the native kernel is built with."""
    compiler = (sysconfig.get_config_var("CC") or "cc").split()[0]
    return shutil.which(compiler) is not None or shutil.which("cc") is not None


def check_solver(solver: str, has_compiler: bool) -> List[str]:
    """On a host with a C compiler the compiled kernel must be in use."""
    if has_compiler and solver != "native":
        return [
            f"the fluid solver in use is {solver!r}, not the compiled 'native' "
            f"kernel, although a C compiler is present"
        ]
    return []


def physical_checks(records: Sequence[Dict[str, object]]) -> List[str]:
    """Every property check that needs no recomputation."""
    return (
        check_finite_positive(records)
        + check_compute_floor(records)
        + check_bandwidth(records)
        + check_oversubscription(records)
        + check_failure_order(records)
    )
