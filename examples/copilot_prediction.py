#!/usr/bin/env python3
"""MixNet-Copilot: predict the next layer's all-to-all demand (Appendix B.1).

Generates a synthetic Mixtral 8x7B training trace, feeds the per-layer expert
loads to MixNet-Copilot online, and reports the top-k prediction accuracy
against the Random and Unmodified (previous layer) baselines — the comparison
of Figure 19.  It then shows how the prediction quality translates into
circuit allocations by running Algorithm 1 on predicted vs. actual demand.

Run with:  python examples/copilot_prediction.py
"""

from repro import MIXTRAL_8x7B, MixNetCopilot, reconfigure_ocs, simulation_cluster
from repro.core.demand import rank_to_server_demand
from repro.moe.gate import GateSimulator
from repro.moe.parallelism import ParallelismPlan


def main() -> None:
    model = MIXTRAL_8x7B
    gate = GateSimulator(model, seed=2)
    loads_by_iteration = [gate.expert_loads(step).copy() for step in range(0, 40, 2)]

    copilot = MixNetCopilot(
        num_layers=model.num_moe_blocks, num_experts=model.num_experts, window=8
    )
    reports = copilot.evaluate(loads_by_iteration, ks=(1, 2, 3, 4), warmup=3)

    print("Top-k prediction accuracy (Figure 19):")
    print(f"    {'k':>3s}  {'Random':>8s}  {'Unmodified':>10s}  {'Copilot':>8s}")
    for k in (1, 2, 3, 4):
        print(
            f"    {k:>3d}  {reports['Random'].accuracy(k):8.2f}  "
            f"{reports['Unmodified'].accuracy(k):10.2f}  "
            f"{reports['MixNet-Copilot'].accuracy(k):8.2f}"
        )

    # How prediction quality shows up in the circuit allocation.
    cluster = simulation_cluster(16)
    plan = ParallelismPlan(model, cluster)
    group = plan.ep_groups()[0]
    actual_loads = loads_by_iteration[-1]
    predicted = copilot.predict_loads(1, actual_loads[0])

    actual_matrix = gate.rank_traffic_matrix(actual_loads[1], sender_seed=7)
    predicted_matrix = gate.rank_traffic_matrix(predicted, sender_seed=7)

    allocations = {}
    for name, matrix in (("actual demand", actual_matrix), ("predicted demand", predicted_matrix)):
        demand, servers = rank_to_server_demand(matrix, group, cluster)
        allocations[name] = reconfigure_ocs(demand, optical_degree=6, servers=servers)

    print("\nCircuit allocation from Algorithm 1 (server pair -> circuits):")
    pairs = sorted(set(allocations["actual demand"].circuits) | set(allocations["predicted demand"].circuits))
    print(f"    {'pair':>10s}  {'actual':>7s}  {'predicted':>9s}")
    for pair in pairs:
        print(
            f"    {str(pair):>10s}  {allocations['actual demand'].circuits.get(pair, 0):7d}"
            f"  {allocations['predicted demand'].circuits.get(pair, 0):9d}"
        )
    overlap = sum(
        min(allocations["actual demand"].circuits.get(pair, 0),
            allocations["predicted demand"].circuits.get(pair, 0))
        for pair in pairs
    )
    total = allocations["actual demand"].total_circuits()
    print(f"\nPredicted allocation matches {overlap}/{total} of the circuits the exact "
          "demand would have provisioned.")


if __name__ == "__main__":
    main()
