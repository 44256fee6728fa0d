#include "src/core/experiment.h"

#include <cassert>
#include <stdexcept>

#include "src/core/parallel_runner.h"
#include "src/core/sim_engine.h"

namespace fsbench {

namespace {

// Per-thread RNG seed: thread 0 reproduces the historical single-threaded
// context seed bit-for-bit; later threads step by the golden-ratio constant.
uint64_t ThreadSeed(uint64_t run_seed, int thread) {
  return (run_seed ^ 0x9e3779b97f4a7c15ULL) + 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(thread);
}

// The engine-setup fields shared by a measured run and its crash-recovery
// prefix replay. Kept in one place on purpose: the replay is deterministic
// with the crashed run only while both build their engines identically.
SimEngineConfig BaseEngineConfig(const ExperimentConfig& config) {
  SimEngineConfig engine_config;
  engine_config.duration = config.duration;
  engine_config.warmup = config.warmup;
  engine_config.framework_overhead = config.framework_overhead;
  engine_config.max_ops = config.max_ops;
  engine_config.prewarm = config.prewarm;
  engine_config.continue_on_error = config.continue_on_error;
  return engine_config;
}

}  // namespace

std::vector<double> ExperimentResult::ThroughputSamples() const {
  std::vector<double> samples;
  samples.reserve(runs.size());
  for (const RunResult& run : runs) {
    if (run.ok) {
      samples.push_back(run.ops_per_second);
    }
  }
  return samples;
}

bool ExperimentResult::AllOk() const {
  for (const RunResult& run : runs) {
    if (!run.ok) {
      return false;
    }
  }
  return !runs.empty();
}

RunResult Experiment::RunOnce(const MachineFactory& machine_factory,
                              const ThreadedWorkloadFactory& workload_factory,
                              uint64_t seed) const {
  RunResult result;
  std::unique_ptr<Machine> machine = machine_factory(seed);

  SimEngineConfig engine_config = BaseEngineConfig(config_);
  if (config_.crash.has_value()) {
    engine_config.crash_at_op = config_.crash->at_op;
    engine_config.crash_at_time = config_.crash->at_time;
    machine->EnableCrashTracking();
  }
  SimEngine engine(machine.get(), engine_config);
  for (int thread = 0; thread < config_.threads; ++thread) {
    engine.AddThread(workload_factory(thread), ThreadSeed(seed, thread));
  }

  const FsStatus prepared = engine.Prepare();
  if (prepared != FsStatus::kOk) {
    result.error = prepared;
    return result;
  }
  // Deferred-clock fault plans count kill/onset/burst times from here —
  // the measured window — rather than from mkfs; no-op otherwise.
  // Pre-run origin read, before any cursor exists. detlint: base-clock
  machine->StartFaultClock(machine->clock().now());

  MetricsConfig metrics_config;
  metrics_config.timeline_interval = config_.timeline_interval;
  metrics_config.histogram_slice = config_.histogram_slice;
  // Pre-run origin read, before any cursor exists. detlint: base-clock
  metrics_config.origin = machine->clock().now() + config_.warmup;
  MetricsCollector metrics(metrics_config);

  const SimEngineResult engine_result = engine.Run(&metrics);
  if (!engine_result.ok) {
    result.error = engine_result.error;
    return result;
  }

  result.ok = true;
  result.ops = metrics.total_ops();
  result.measured_duration = engine_result.end_time - engine_result.measure_from;
  result.ops_per_second = result.measured_duration > 0
                              ? static_cast<double>(result.ops) /
                                    ToSeconds(result.measured_duration)
                              : 0.0;
  result.latency = metrics.latency();
  result.histogram = metrics.histogram();
  result.throughput_series = metrics.timeline().OpsPerSecond();
  result.timeline_interval = config_.timeline_interval;
  result.histogram_slices = metrics.histogram_timeline().slices();
  result.histogram_slice = config_.histogram_slice;
  result.cache_hit_ratio = machine->vfs().DataHitRatio();
  result.vfs_stats = machine->vfs().stats();
  result.disk_stats = machine->AggregateDiskStats();
  result.scheduler_stats = machine->AggregateSchedulerStats();
  result.per_thread_ops = engine_result.per_thread_ops;
  result.failed_ops = engine_result.failed_ops;
  if (BlockArray* array = machine->array(); array != nullptr) {
    result.array = array->summary();
  }

  FaultSummary& fault = result.fault;
  for (size_t d = 0; d < machine->device_count(); ++d) {
    if (const FaultPlan* plan = machine->disk(d).fault_plan(); plan != nullptr) {
      fault.transient_faults += plan->stats().transient_faults;
      fault.persistent_faults += plan->stats().persistent_faults;
      fault.slow_ios += plan->stats().slow_ios;
    }
    fault.remapped_regions += machine->disk(d).remapped_regions();
    fault.spare_regions_left += machine->disk(d).spare_regions_left();
  }
  fault.meta_io_failures = machine->fs().meta_io_failures();
  fault.journal_aborted = machine->fs().journal_aborted();
  fault.remounted_ro = machine->fs().read_only();

  if (engine_result.crashed) {
    CrashReport report =
        SimulateCrashRecovery(*machine, engine_result.crash_time, engine_result.total_ops,
                              engine_result.stable_watermark);
    if (config_.crash->replay_check) {
      const std::unique_ptr<Machine> recovered = ReplayRecoveredPrefix(
          machine_factory, workload_factory, config_, seed, report.recovery_watermark);
      std::string error;
      report.recovered_consistent =
          recovered != nullptr && recovered->fs().CheckConsistency(&error);
    }
    result.crash_report = report;
  }
  return result;
}

std::unique_ptr<Machine> ReplayRecoveredPrefix(const MachineFactory& machine_factory,
                                               const ThreadedWorkloadFactory& workload_factory,
                                               const ExperimentConfig& config, uint64_t seed,
                                               uint64_t ops) {
  std::unique_ptr<Machine> machine = machine_factory(seed);
  SimEngineConfig engine_config = BaseEngineConfig(config);
  engine_config.max_ops = ops;
  SimEngine engine(machine.get(), engine_config);
  for (int thread = 0; thread < config.threads; ++thread) {
    engine.AddThread(workload_factory(thread), ThreadSeed(seed, thread));
  }
  if (engine.Prepare() != FsStatus::kOk) {
    return nullptr;
  }
  // ops == 0 means the recovered state is the post-setup baseline (max_ops
  // of 0 would mean "uncapped" to the engine, so don't run it at all).
  if (ops > 0 && !engine.Run(nullptr).ok) {
    return nullptr;
  }
  return machine;
}

ExperimentResult Experiment::Run(const MachineFactory& machine_factory,
                                 const WorkloadFactory& workload_factory) const {
  return Run(machine_factory,
             [&workload_factory](int /*thread*/) { return workload_factory(); });
}

ExperimentResult Experiment::Run(const MachineFactory& machine_factory,
                                 const ThreadedWorkloadFactory& workload_factory) const {
  assert(config_.runs > 0);
  ExperimentResult result;
  // Each repetition lands in its own slot; aggregation below walks the
  // slots in run order, so the result is identical for every jobs value.
  result.runs.resize(static_cast<size_t>(config_.runs));
  const std::vector<std::string> errors = RunCells(
      static_cast<size_t>(config_.runs), config_.jobs, [&](size_t run) {
        result.runs[run] = RunOnce(machine_factory, workload_factory,
                                   config_.base_seed + static_cast<uint64_t>(run));
      });
  for (size_t run = 0; run < errors.size(); ++run) {
    if (!errors[run].empty()) {
      // Preserve the serial fail-fast contract: an escaped exception (not a
      // workload kIoError, which RunOnce reports as !ok) surfaces to the
      // caller instead of masquerading as a failed run.
      throw std::runtime_error("experiment run " + std::to_string(run) +
                               " threw: " + errors[run]);
    }
  }
  std::vector<double> throughputs;
  std::vector<double> latencies;
  for (RunResult& run_result : result.runs) {
    if (run_result.ok) {
      throughputs.push_back(run_result.ops_per_second);
      latencies.push_back(run_result.latency.mean());
      result.merged_histogram.Merge(run_result.histogram);
    }
  }
  result.throughput = Summarize(throughputs);
  result.mean_latency_ns = Summarize(latencies);
  return result;
}

}  // namespace fsbench
