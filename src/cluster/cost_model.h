// Cost model for the paper's cluster, used by the figure benches. The
// benches run the production engine (intake, computing and storage jobs on a
// cluster::Cluster) at the figure's node count; the engine records each
// task's thread CPU in the idea.{intake,compute,storage}.<feed>.*_cpu_us
// series. A host with a few cores cannot show the wall time of N parallel
// nodes, so ChargeRun turns those measured task times into the N-node time.
// Everything a single process cannot physically exhibit — job start-up
// messaging, compilation, network transfer, socket receive, log-flush waits —
// is charged through CostModelConfig. Defaults approximate the paper's
// testbed (Gigabit Ethernet, 2-core Opterons; §7).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace idea::cluster {

struct CostModelConfig {
  /// CC-side handling of one job invocation message (Figure 20).
  double job_start_fixed_us = 800;
  /// Per-node task-activation message (start-task round trip); total job
  /// start-up grows linearly with cluster size — the execution overhead the
  /// paper observes for short computing jobs on large clusters.
  double job_start_per_node_us = 400;
  /// Full query compilation + job distribution, paid per invocation when
  /// predeployed jobs are disabled (ablation) and once when enabled.
  double compile_us = 25000;
  /// Network transfer cost per KiB moved between nodes (≈ Gigabit Ethernet
  /// with framing overhead).
  double network_per_kib_us = 10;
  /// Group-commit wait for a storage-log flush (per committed frame).
  double log_flush_us = 3000;
  /// Scales measured CPU time to the modelled node's speed (the paper's
  /// Opteron 2212 cores running a JVM are several times slower than a modern
  /// native -O2 host core).
  double cpu_scale = 3.0;
  /// Receive-side cost per raw record on an intake node (socket read,
  /// syscalls, framing). Calibrated so a single intake node saturates around
  /// 60-70K records/s of ~450-byte records, the convergence level of the
  /// paper's unbalanced dynamic ingestion (Figure 24).
  double intake_per_record_us = 15.0;
};

class CostModel {
 public:
  explicit CostModel(CostModelConfig config = CostModelConfig()) : config_(config) {}

  const CostModelConfig& config() const { return config_; }

  /// Start-up cost of invoking one (predeployed) job on `nodes` nodes.
  double JobStartMicros(size_t nodes) const {
    return config_.job_start_fixed_us +
           config_.job_start_per_node_us * static_cast<double>(nodes);
  }

  /// Extra cost when the job must be compiled+distributed (not predeployed).
  double CompileMicros() const { return config_.compile_us; }

  /// Cost of shipping `bytes` across one node's link. Callers divide the
  /// payload across links for parallel repartitioning, or pass the full
  /// payload for broadcast (every receiver takes it all).
  double TransferMicros(double bytes) const {
    return config_.network_per_kib_us * (bytes / 1024.0);
  }

  double IntakePerRecordMicros() const { return config_.intake_per_record_us; }

  double LogFlushMicros() const { return config_.log_flush_us; }

  /// Measured host CPU time -> modelled node CPU time.
  double ScaleCpu(double measured_us) const { return measured_us * config_.cpu_scale; }

 private:
  CostModelConfig config_;
};

/// One feed run's measured task costs, summed over the run. CPU figures are
/// host thread CPU in µs, as the engine records them.
struct TaskTotals {
  uint64_t records = 0;      // records stored
  uint64_t invocations = 0;  // computing-job invocations
  uint64_t frames = 0;       // frames the storage drains committed
  double ship_bytes = 0;     // frame bytes the computing jobs shipped
  double adapter_cpu_us = 0;  // intake adapter tasks
  // Computing partition tasks, by stage (the static accounting's inputs).
  double parse_cpu_us = 0;
  double enrich_cpu_us = 0;
  double ship_cpu_us = 0;
  /// Σ over invocations of the largest partition's parse+init+enrich+ship
  /// CPU, and the percentiles of that per-invocation series.
  double critical_cpu_us = 0;
  double critical_p50_us = 0;
  double critical_p95_us = 0;
  double critical_p99_us = 0;
  double critical_max_us = 0;
  // Storage drains, per frame.
  double decode_cpu_us = 0;
  double apply_cpu_us = 0;
};

/// How a bench charges one engine run. These are accounting choices over the
/// same run, not engine settings.
struct Accounting {
  size_t nodes = 1;
  /// false: charge the run as the static (coupled) pipeline of §2.3 — parse
  /// on the intake nodes, no job start, no state refresh, enrich and ship
  /// spread over the nodes, one group commit per kStaticCommitRecords
  /// records.
  bool dynamic = true;
  bool balanced_intake = false;   // an adapter on every node, else one
  bool predeployed = true;        // false: compile_us per invocation
  bool fused_insert_job = false;  // storage joins each invocation (§5.1)
  /// The plan probes an index nested loop: every node receives every shipped
  /// byte (§7.4.2). Otherwise each link carries 1/N of them.
  bool broadcast = false;
};

/// Records per group commit of the static pipeline, which commits per
/// storage frame regardless of the dynamic framework's batch size.
inline constexpr double kStaticCommitRecords = 420;

struct RunCharge {
  double intake_us = 0;
  double compute_us = 0;  // dynamic: Σ per-invocation time
  double storage_us = 0;  // 0 when fused into compute
  double makespan_us = 0;
  double throughput_rps = 0;
  // Dynamic only: mean and percentiles of the per-invocation time.
  double refresh_period_us = 0;
  double batch_p50_us = 0;
  double batch_p95_us = 0;
  double batch_p99_us = 0;
  double batch_max_us = 0;
};

/// Turns a run's task totals into its time on `how.nodes` nodes. The layers
/// overlap, so makespan = max(intake, Σ per-invocation time, storage).
///  - intake: intake_per_record_us per record plus the adapters' CPU, divided
///    over the intake nodes;
///  - per invocation: job start on N nodes (+ compile_us without predeployed
///    jobs), the critical partition's CPU, and the transfer of its shipped
///    bytes. Every node builds the whole reference state, so the critical
///    partition carries a full refresh, not 1/N of one;
///  - storage: decode CPU / N, plus every frame's apply CPU, because one
///    exclusive lock on the target dataset serializes the drains' applies,
///    plus log_flush_us per commit spread over the N partitions.
inline RunCharge ChargeRun(const TaskTotals& t, const CostModelConfig& config,
                           const Accounting& how) {
  const CostModel costs(config);
  const size_t nodes = std::max<size_t>(1, how.nodes);
  const double n = static_cast<double>(nodes);
  const double intake_nodes = how.balanced_intake ? n : 1;
  const double records = static_cast<double>(t.records);
  const double transfer =
      costs.TransferMicros(how.broadcast ? t.ship_bytes : t.ship_bytes / n);
  const double intake_work =
      costs.IntakePerRecordMicros() * records + costs.ScaleCpu(t.adapter_cpu_us);
  const double commits =
      how.dynamic ? static_cast<double>(t.frames) : records / kStaticCommitRecords;
  const double storage = costs.ScaleCpu(t.decode_cpu_us) / n +
                         costs.ScaleCpu(t.apply_cpu_us) +
                         costs.LogFlushMicros() * commits / n;
  RunCharge c;
  if (!how.dynamic) {
    c.intake_us = (intake_work + costs.ScaleCpu(t.parse_cpu_us)) / intake_nodes;
    c.compute_us = costs.ScaleCpu(t.enrich_cpu_us + t.ship_cpu_us) / n + transfer;
    c.storage_us = storage;
  } else {
    const double jobs = static_cast<double>(std::max<uint64_t>(1, t.invocations));
    const double invoke =
        costs.JobStartMicros(nodes) + (how.predeployed ? 0 : costs.CompileMicros());
    const double fused = how.fused_insert_job ? storage : 0;
    const double extra = (transfer + fused) / jobs;  // per invocation
    c.intake_us = intake_work / intake_nodes;
    c.compute_us = invoke * static_cast<double>(t.invocations) +
                   costs.ScaleCpu(t.critical_cpu_us) + transfer + fused;
    c.storage_us = storage - fused;
    c.refresh_period_us = c.compute_us / jobs;
    c.batch_p50_us = invoke + costs.ScaleCpu(t.critical_p50_us) + extra;
    c.batch_p95_us = invoke + costs.ScaleCpu(t.critical_p95_us) + extra;
    c.batch_p99_us = invoke + costs.ScaleCpu(t.critical_p99_us) + extra;
    c.batch_max_us = invoke + costs.ScaleCpu(t.critical_max_us) + extra;
  }
  c.makespan_us = std::max({c.intake_us, c.compute_us, c.storage_us});
  c.throughput_rps = c.makespan_us > 0 ? records * 1e6 / c.makespan_us : 0;
  return c;
}

}  // namespace idea::cluster
