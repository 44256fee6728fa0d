// hostbench_runner: one repetition of one host-time benchmark workload.
//
// Builds the workload's Machine, prepares it (mkfs, file set, prewarm),
// runs the measured virtual window through SimEngine, then checks the
// result: the file system's consistency check, public-counter identities,
// and a digest of every virtual-time counter, which run.py compares across
// repetitions. Prints one JSON object on stdout. run.py repeats the runner
// in fresh processes, so peak RSS is that of a process that ran only this
// workload, and reports medians.
//
// Usage: hostbench_runner --workload NAME --seed N [--trace] [--short]
//                         [--drop-prewarm] [--fail-step K]
//   --trace         wrap every thread's workload in a decorator that times
//                   Setup, Prewarm and Step from outside, and capture each
//                   device's request stream for a host-time replay. Gives the
//                   per-layer numbers; never used for end-to-end timings.
//   --short         a short virtual window (the benchmark's own tests)
//   --drop-prewarm  the decorator swallows Prewarm, a deliberately wrong
//                   decorator the correctness gate must catch (tests)
//   --fail-step K   the decorator fails the K-th step of the run (counted
//                   over all threads) with kNoSpace, which stops the run
//                   (tests: every op of the repetition must count as failed)
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/cell_seed.h"
#include "src/core/experiment.h"
#include "src/core/sim_engine.h"
#include "src/core/workloads/create_delete.h"
#include "src/core/workloads/postmark_like.h"
#include "src/core/workloads/random_read.h"

namespace fsbench {
namespace {

using HostClock = std::chrono::steady_clock;

int64_t HostNs(HostClock::time_point from, HostClock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count();
}

// Host time of set-up, the run, spans and device replay: this thread's CPU
// time, which leaves out time the kernel or a hypervisor gave the CPU to
// someone else. Per-step timing uses HostClock instead: it is read without a
// system call, and a step is too short to be descheduled often.
int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// The three workloads. Why each was chosen is in README.md; the measured
// virtual windows are fixed (not host-time bounded) so every repetition
// simulates exactly the same thing and peak RSS compares across commits.
struct WorkloadSpec {
  FsKind fs = FsKind::kExt2;
  int threads = 1;
  Nanos window = 0;
  Nanos short_window = 0;
  MachineConfig machine;
  ThreadedWorkloadFactory workload;
};

bool FindSpec(const std::string& name, WorkloadSpec* spec) {
  if (name == "randread_tiers") {
    // §3.1's multi-level cache: ~410 MiB RAM, 1 GiB flash, a 1664 MiB file.
    spec->machine = PaperTestbedConfig();
    spec->machine.flash = FlashTierConfig{};
    spec->window = 300 * kSecond;
    spec->short_window = 20 * kSecond;
    spec->workload = [](int) {
      RandomReadConfig config;
      config.file_size = 1664 * kMiB;
      return std::make_unique<RandomReadWorkload>(config);
    };
    return true;
  }
  if (name == "postmark_ssd") {
    spec->fs = FsKind::kExt3;
    spec->threads = 8;
    spec->machine = PaperTestbedConfig();
    spec->machine.ram = 120 * kMiB;
    spec->machine.device = DeviceKind::kSsd;
    spec->window = 10 * kSecond;
    spec->short_window = kSecond;
    PostmarkConfig config;
    config.initial_files = 200;
    config.min_size = 512;
    config.max_size = 64 * kKiB;
    config.fsync_every = 8;
    spec->workload = MtPostmarkFactory(config);
    return true;
  }
  if (name == "bigdir_churn") {
    spec->threads = 2;
    spec->machine = PaperTestbedConfig();
    spec->window = 4 * kSecond;
    spec->short_window = 2 * kSecond;
    spec->workload = [](int thread) {
      CreateDeleteConfig config;
      config.dir = "/cd_t" + std::to_string(thread);
      config.working_set = 20000;
      return std::make_unique<CreateDeleteWorkload>(config);
    };
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Tracing: spans recorded from outside the simulator, kept in memory.

struct Span {
  const char* name = "";
  int64_t start_ns = 0;  // thread CPU ns since the repetition started
  int64_t end_ns = 0;
  int parent = -1;  // index into the span list; -1 for the root
  int thread = -1;  // simulated thread; -1 when not thread-specific
};

class Tracer {
 public:
  int Begin(const char* name, int parent, int thread = -1) {
    Span span;
    span.name = name;
    span.start_ns = Now();
    span.parent = parent;
    span.thread = thread;
    spans_.push_back(span);
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int span) { spans_[static_cast<size_t>(span)].end_ns = Now(); }

  // Step spans are aggregated per op type: their parent is always the run
  // span, so only the duration is kept.
  void RecordStep(OpType op, int64_t ns) { steps_[static_cast<size_t>(op)].push_back(ns); }

  int prepare_span = -1;
  const std::vector<Span>& spans() const { return spans_; }
  std::array<std::vector<int64_t>, kOpTypeCount>& steps() { return steps_; }

  // Host ns the named spans cover, summed (e.g. "setup" over all threads).
  int64_t Total(const char* name) const {
    int64_t total = 0;
    for (const Span& span : spans_) {
      if (std::strcmp(span.name, name) == 0) {
        total += span.end_ns - span.start_ns;
      }
    }
    return total;
  }

 private:
  int64_t Now() const { return CpuNs() - epoch_; }

  int64_t epoch_ = CpuNs();
  std::vector<Span> spans_;
  std::array<std::vector<int64_t>, kOpTypeCount> steps_;
};

// Deliberately wrong decorator behaviour that the correctness gate must
// catch (the benchmark's own tests). Shared by every thread's decorator.
struct Sabotage {
  bool drop_prewarm = false;
  uint64_t fail_step = 0;  // 1-based, over all threads; 0: never
  uint64_t steps = 0;      // steps dispatched so far
};

// Forwards Setup, Prewarm and Step to the wrapped workload, timing each from
// outside. The engine cannot tell it from the workload it wraps, so a traced
// run's virtual-time digest must equal the untraced run's.
class TracedWorkload : public Workload {
 public:
  TracedWorkload(std::unique_ptr<Workload> inner, Tracer* tracer, Sabotage* sabotage)
      : inner_(std::move(inner)), tracer_(tracer), sabotage_(sabotage) {}

  const char* name() const override { return inner_->name(); }

  FsStatus Setup(WorkloadContext& ctx) override {
    const int span = tracer_->Begin("setup", tracer_->prepare_span, ctx.thread);
    const FsStatus status = inner_->Setup(ctx);
    tracer_->End(span);
    return status;
  }

  FsStatus Prewarm(WorkloadContext& ctx) override {
    if (sabotage_->drop_prewarm) {
      return FsStatus::kOk;
    }
    const int span = tracer_->Begin("prewarm", tracer_->prepare_span, ctx.thread);
    const FsStatus status = inner_->Prewarm(ctx);
    tracer_->End(span);
    return status;
  }

  FsResult<OpType> Step(WorkloadContext& ctx) override {
    if (++sabotage_->steps == sabotage_->fail_step) {
      return FsResult<OpType>::Error(FsStatus::kNoSpace);
    }
    const HostClock::time_point start = HostClock::now();
    const FsResult<OpType> op = inner_->Step(ctx);
    tracer_->RecordStep(op.ok() ? op.value : OpType::kOther, HostNs(start, HostClock::now()));
    return op;
  }

 private:
  std::unique_ptr<Workload> inner_;
  Tracer* tracer_;
  Sabotage* sabotage_;
};

// Captures one device's request stream: the scheduler reports every request
// once its completion time is known.
class RequestRecorder : public IoCompletionObserver {
 public:
  struct Entry {
    IoRequest req;
    Nanos at = 0;
  };

  void OnIoComplete(const IoRequest& req, Nanos completion, bool ok) override {
    (void)ok;
    stream.push_back(Entry{req, completion});
  }

  std::vector<Entry> stream;
};

// Host ns per DeviceModel::AccessEx: every recorded stream is replayed into a
// fresh device built with the run's jittered parameters. Median of three
// replays; 0 (n/a) when the window issued no I/O.
double ReplayAccessNs(const Machine& machine, uint64_t seed,
                      const std::vector<RequestRecorder>& recorders) {
  size_t requests = 0;
  for (const RequestRecorder& recorder : recorders) {
    requests += recorder.stream.size();
  }
  if (requests == 0) {
    return 0.0;
  }
  std::array<double, 3> samples{};
  for (double& sample : samples) {
    int64_t ns = 0;
    for (const RequestRecorder& recorder : recorders) {
      const std::unique_ptr<DeviceModel> device = machine.MakeRecoveryDevice(seed);
      const int64_t start = CpuNs();
      for (const RequestRecorder::Entry& entry : recorder.stream) {
        device->AccessEx(entry.req, entry.at);
      }
      ns += CpuNs() - start;
    }
    sample = static_cast<double>(ns) / static_cast<double>(requests);
  }
  std::sort(samples.begin(), samples.end());
  return samples[1];
}

// Nearest-rank quantile of raw samples (reorders them).
int64_t Quantile(std::vector<int64_t>& samples, double q) {
  if (samples.empty()) {
    return 0;
  }
  size_t rank = static_cast<size_t>(q * static_cast<double>(samples.size()) + 0.999999);
  rank = std::clamp<size_t>(rank, 1, samples.size()) - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<ptrdiff_t>(rank),
                   samples.end());
  return samples[rank];
}

// ---------------------------------------------------------------------------
// Counters, digest and correctness gate.

// Every public counter the per-layer metrics are deltas of.
struct Snapshot {
  VfsStats vfs;
  PageCacheStats cache;
  FlashTierStats flash;
  IoSchedulerStats sched;  // summed over devices (max for max_queue_depth)
  DiskStats disk;          // summed over devices
  JournalStats journal;
  TxnLogStats txn_log;
};

Snapshot TakeSnapshot(Machine& machine) {
  Snapshot s;
  s.vfs = machine.vfs().stats();
  s.cache = machine.vfs().cache().stats();
  if (const FlashTier* flash = machine.flash(); flash != nullptr) {
    s.flash = flash->stats();
  }
  s.sched = machine.AggregateSchedulerStats();
  s.disk = machine.AggregateDiskStats();
  if (const Journal* journal = machine.fs().journal(); journal != nullptr) {
    s.journal = journal->stats();
    if (const TxnLog* log = journal->txn_log(); log != nullptr) {
      s.txn_log = log->stats();
    }
  }
  return s;
}

// FNV-1a over explicitly appended fields, in a fixed order.
class Digest {
 public:
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 1099511628211ULL;
    }
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ULL;
};

void DigestDisk(Digest& d, const DiskStats& s) {
  for (uint64_t v : {s.reads, s.writes, s.sectors_read, s.sectors_written, s.seeks,
                     s.buffer_hits, s.sequential_hits, s.errors, s.gc_page_moves, s.gc_erases}) {
    d.U64(v);
  }
  for (Nanos v : {s.total_service_time, s.total_seek_time, s.total_rotation_time,
                  s.total_transfer_time, s.total_fault_time, s.total_gc_time}) {
    d.I64(v);
  }
}

void DigestScheduler(Digest& d, const IoSchedulerStats& s) {
  for (uint64_t v : {s.sync_requests, s.async_requests, s.async_serviced, s.async_errors,
                     s.sync_errors, s.retries, s.remaps, s.async_throttle_stalls,
                     static_cast<uint64_t>(s.max_queue_depth)}) {
    d.U64(v);
  }
  for (Nanos v : {s.retry_backoff_time, s.total_sync_wait, s.total_sync_queue_delay,
                  s.total_async_throttle_time}) {
    d.I64(v);
  }
}

// Every virtual-time result of the repetition: a host-only change must leave
// it bit-identical, a model change moves it.
uint64_t DigestRun(Machine& machine, const Snapshot& s, const SimEngineResult& result,
                   const MetricsCollector& metrics) {
  Digest d;
  const VfsStats& v = s.vfs;
  for (uint64_t x : {v.reads, v.writes, v.creates, v.unlinks, v.stats_calls, v.opens, v.fsyncs,
                     v.bytes_read, v.bytes_written, v.data_page_hits, v.data_page_misses,
                     v.flash_hits, v.demand_requests, v.readahead_pages, v.writeback_pages,
                     v.io_errors, v.write_errors, v.meta_write_errors, v.degraded_reads,
                     v.readonly_rejects}) {
    d.U64(x);
  }
  for (uint64_t x : {s.cache.hits, s.cache.misses, s.cache.insertions, s.cache.evictions,
                     s.cache.dirty_evictions}) {
    d.U64(x);
  }
  for (size_t dev = 0; dev < machine.device_count(); ++dev) {
    DigestDisk(d, machine.disk(dev).stats());
    DigestScheduler(d, machine.scheduler(dev).stats());
  }
  for (uint64_t x : {s.journal.commits, s.journal.sync_commits, s.journal.blocks_logged,
                     s.journal.cil_inserts, s.journal.cil_pushes}) {
    d.U64(x);
  }
  const TxnLogStats& t = s.txn_log;
  for (uint64_t x : {t.commits, t.blocks_logged, t.reclaimed_txns, t.forced_checkpoints,
                     t.background_checkpoints, t.checkpoint_writes, t.log_stalls,
                     t.split_commits, t.max_used_blocks}) {
    d.U64(x);
  }
  d.I64(t.stall_time);
  for (uint64_t x : {s.flash.hits, s.flash.misses, s.flash.insertions, s.flash.evictions}) {
    d.U64(x);
  }
  d.U64(result.total_ops);
  d.U64(result.failed_ops);
  d.I64(result.measure_from);
  d.I64(result.end_time);
  for (uint64_t ops : result.per_thread_ops) {
    d.U64(ops);
  }
  const LatencyHistogram& histogram = metrics.histogram();
  d.U64(histogram.total());
  for (int b = 0; b < LatencyHistogram::kBuckets; ++b) {
    d.U64(histogram.count(b));
  }
  return d.value();
}

// Consistency check plus public-counter identities; empty when they hold.
// Expects every scheduler drained.
std::string CheckGate(Machine& machine, const SimEngineResult& result) {
  std::string error;
  if (!machine.fs().CheckConsistency(&error)) {
    return "file system inconsistent: " + error;
  }
  uint64_t thread_ops = 0;
  for (uint64_t ops : result.per_thread_ops) {
    thread_ops += ops;
  }
  if (thread_ops != result.total_ops) {
    return "per-thread ops do not sum to total ops";
  }
  for (size_t dev = 0; dev < machine.device_count(); ++dev) {
    const IoScheduler& scheduler = machine.scheduler(dev);
    if (scheduler.stats().async_requests !=
        scheduler.stats().async_serviced + scheduler.pending_async()) {
      return "device " + std::to_string(dev) + ": async requests != serviced + pending";
    }
  }
  const PageCacheStats& cache = machine.vfs().cache().stats();
  const VfsStats& vfs = machine.vfs().stats();
  if (cache.hits + cache.misses < vfs.data_page_hits + vfs.data_page_misses) {
    return "fewer page-cache lookups than data-page lookups";
  }
  return "";
}

// ---------------------------------------------------------------------------
// Output.

double PerOp(uint64_t count, uint64_t ops) {
  return ops == 0 ? 0.0 : static_cast<double>(count) / static_cast<double>(ops);
}

double Ratio(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
}

using Fields = std::vector<std::pair<std::string, double>>;

// Virtual-time per-layer metrics over the measured window (deltas of the
// snapshot taken after Prepare). Ratios with an empty base read 0 (n/a).
Fields LayerMetrics(Machine& machine, const Snapshot& a, const Snapshot& b,
                    const SimEngineResult& result, const MetricsCollector& metrics) {
  const uint64_t ops = result.total_ops;
  const Nanos window = result.end_time - result.measure_from;
  const uint64_t lookups = (b.cache.hits + b.cache.misses) - (a.cache.hits + a.cache.misses);
  const uint64_t data_lookups = (b.vfs.data_page_hits + b.vfs.data_page_misses) -
                                (a.vfs.data_page_hits + a.vfs.data_page_misses);
  const uint64_t flash_hits = b.flash.hits - a.flash.hits;
  const uint64_t flash_lookups = flash_hits + (b.flash.misses - a.flash.misses);
  const uint64_t syncs = b.sched.sync_requests - a.sched.sync_requests;
  uint64_t channels = 0;
  for (size_t dev = 0; dev < machine.device_count(); ++dev) {
    channels += machine.disk(dev).channels();
  }
  const LatencyHistogram& histogram = metrics.histogram();
  return {
      {"vfs.latency_us_p50", static_cast<double>(histogram.ApproxPercentile(0.50)) / 1e3},
      {"vfs.latency_us_p99", static_cast<double>(histogram.ApproxPercentile(0.99)) / 1e3},
      {"vfs.ops_per_virtual_s", window > 0 ? static_cast<double>(ops) / ToSeconds(window) : 0.0},
      {"page_cache.lookups_per_op", PerOp(lookups, ops)},
      {"page_cache.hit_ratio", Ratio(b.cache.hits - a.cache.hits, lookups)},
      {"page_cache.evictions_per_op", PerOp(b.cache.evictions - a.cache.evictions, ops)},
      {"page_cache.writeback_pages_per_op",
       PerOp(b.vfs.writeback_pages - a.vfs.writeback_pages, ops)},
      {"fs.meta_lookups_per_op", PerOp(lookups - std::min(lookups, data_lookups), ops)},
      {"flash_tier.hit_ratio", Ratio(flash_hits, flash_lookups)},
      {"flash_tier.insertions_per_op", PerOp(b.flash.insertions - a.flash.insertions, ops)},
      {"sched.sync_per_op", PerOp(syncs, ops)},
      {"sched.async_per_op", PerOp(b.sched.async_requests - a.sched.async_requests, ops)},
      {"sched.queue_delay_us_per_sync",
       syncs == 0 ? 0.0
                  : static_cast<double>(b.sched.total_sync_queue_delay -
                                        a.sched.total_sync_queue_delay) /
                        1e3 / static_cast<double>(syncs)},
      {"sched.max_queue_depth", static_cast<double>(b.sched.max_queue_depth)},
      {"sched.throttle_stalls",
       static_cast<double>(b.sched.async_throttle_stalls - a.sched.async_throttle_stalls)},
      {"device.busy_share",
       window > 0 && channels > 0
           ? static_cast<double>(b.disk.total_service_time - a.disk.total_service_time) /
                 (static_cast<double>(window) * static_cast<double>(channels))
           : 0.0},
      {"journal.commits_per_op", PerOp(b.journal.commits - a.journal.commits, ops)},
      {"txn_log.blocks_logged_per_op",
       PerOp(b.txn_log.blocks_logged - a.txn_log.blocks_logged, ops)},
      {"txn_log.stall_ms",
       static_cast<double>(b.txn_log.stall_time - a.txn_log.stall_time) / 1e6},
  };
}

// Where the window's data-page lookups were served: RAM, flash, disk.
Fields ServiceMix(const Snapshot& a, const Snapshot& b) {
  const uint64_t hits = b.vfs.data_page_hits - a.vfs.data_page_hits;
  const uint64_t misses = b.vfs.data_page_misses - a.vfs.data_page_misses;
  const uint64_t flash = b.vfs.flash_hits - a.vfs.flash_hits;
  const uint64_t total = hits + misses;
  return {{"ram", Ratio(hits, total)},
          {"flash", Ratio(flash, total)},
          {"disk", Ratio(misses - std::min(misses, flash), total)}};
}

void PrintFields(const Fields& fields) {
  std::printf("{");
  for (size_t i = 0; i < fields.size(); ++i) {
    std::printf("%s\"%s\": %.17g", i == 0 ? "" : ", ", fields[i].first.c_str(),
                fields[i].second);
  }
  std::printf("}");
}

// Per-op-type step aggregates plus the coarse spans, as JSON members.
void PrintTrace(Tracer& tracer) {
  std::vector<int64_t> all;
  std::printf(", \"steps\": {");
  bool first = true;
  for (int i = 0; i < kOpTypeCount; ++i) {
    std::vector<int64_t>& samples = tracer.steps()[static_cast<size_t>(i)];
    if (samples.empty()) {
      continue;
    }
    all.insert(all.end(), samples.begin(), samples.end());
    int64_t total = 0;
    for (int64_t ns : samples) {
      total += ns;
    }
    const size_t count = samples.size();
    const int64_t p50 = Quantile(samples, 0.50);
    const int64_t p99 = Quantile(samples, 0.99);
    const int64_t max = *std::max_element(samples.begin(), samples.end());
    std::printf("%s\"%s\": {\"count\": %zu, \"total_ns\": %" PRId64 ", \"p50_ns\": %" PRId64
                ", \"p99_ns\": %" PRId64 ", \"max_ns\": %" PRId64 "}",
                first ? "" : ", ", OpTypeName(static_cast<OpType>(i)), count, total, p50, p99,
                max);
    first = false;
  }
  const size_t count = all.size();
  const int64_t p50 = Quantile(all, 0.50);
  const int64_t p99 = Quantile(all, 0.99);
  const int64_t p999 = Quantile(all, 0.999);
  std::printf("}, \"step_all\": {\"count\": %zu, \"p50_ns\": %" PRId64 ", \"p99_ns\": %" PRId64
              ", \"p999_ns\": %" PRId64 "}, \"spans\": [",
              count, p50, p99, p999);
  const std::vector<Span>& spans = tracer.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::printf("%s{\"name\": \"%s\", \"start_ns\": %" PRId64 ", \"end_ns\": %" PRId64
                ", \"parent\": %d, \"thread\": %d}",
                i == 0 ? "" : ", ", s.name, s.start_ns, s.end_ns, s.parent, s.thread);
  }
  std::printf("]");
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out;
}

int Usage() {
  std::fprintf(stderr,
               "usage: hostbench_runner --workload NAME --seed N [--trace] [--short] "
               "[--drop-prewarm] [--fail-step K]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string name;
  uint64_t seed = 0;
  bool have_seed = false;
  bool traced = false;
  bool short_mode = false;
  Sabotage sabotage;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload" && i + 1 < argc) {
      name = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      have_seed = end != nullptr && *end == '\0' && end != argv[i];
    } else if (arg == "--trace") {
      traced = true;
    } else if (arg == "--short") {
      short_mode = true;
    } else if (arg == "--drop-prewarm") {
      sabotage.drop_prewarm = true;
    } else if (arg == "--fail-step" && i + 1 < argc) {
      sabotage.fail_step = std::strtoull(argv[++i], nullptr, 10);
    } else {
      return Usage();
    }
  }
  WorkloadSpec spec;
  if (!have_seed || !FindSpec(name, &spec)) {
    return Usage();
  }

  const ExperimentConfig defaults;
  SimEngineConfig engine_config;
  engine_config.duration = short_mode ? spec.short_window : spec.window;
  engine_config.framework_overhead = defaults.framework_overhead;
  engine_config.prewarm = true;
  engine_config.continue_on_error = true;

  Tracer tracer;
  const int root = traced ? tracer.Begin("repetition", -1) : -1;

  // setup_s: Machine construction through SimEngine::Prepare.
  const int64_t setup_start = CpuNs();
  const int machine_span = traced ? tracer.Begin("machine", root) : -1;
  MachineConfig machine_config = spec.machine;
  machine_config.seed = seed;
  const std::unique_ptr<Machine> machine = std::make_unique<Machine>(spec.fs, machine_config);
  if (traced) {
    tracer.End(machine_span);
  }
  SimEngine engine(machine.get(), engine_config);
  for (int thread = 0; thread < spec.threads; ++thread) {
    std::unique_ptr<Workload> workload = spec.workload(thread);
    if (traced) {
      workload = std::make_unique<TracedWorkload>(std::move(workload), &tracer, &sabotage);
    }
    engine.AddThread(std::move(workload), DeriveCellSeed(seed, static_cast<uint64_t>(thread), 0, 0));
  }
  if (traced) {
    tracer.prepare_span = tracer.Begin("prepare", root);
  }
  const FsStatus prepared = engine.Prepare();
  if (traced) {
    tracer.End(tracer.prepare_span);
  }
  const double setup_s = static_cast<double>(CpuNs() - setup_start) / 1e9;

  std::string gate;
  SimEngineResult result;
  double run_s = 0.0;
  const Snapshot before = TakeSnapshot(*machine);
  std::vector<RequestRecorder> recorders(traced ? machine->device_count() : 0);
  for (size_t dev = 0; dev < recorders.size(); ++dev) {
    machine->scheduler(dev).set_completion_observer(&recorders[dev]);
  }
  MetricsConfig metrics_config;
  metrics_config.timeline_interval = defaults.timeline_interval;
  metrics_config.histogram_slice = defaults.histogram_slice;
  // Pre-run origin read, before any cursor exists. detlint: base-clock
  metrics_config.origin = machine->clock().now();
  MetricsCollector metrics(metrics_config);
  if (prepared != FsStatus::kOk) {
    gate = std::string("prepare failed: ") + FsStatusName(prepared);
  } else {
    const int run_span = traced ? tracer.Begin("run", root) : -1;
    const int64_t run_start = CpuNs();
    result = engine.Run(&metrics);
    run_s = static_cast<double>(CpuNs() - run_start) / 1e9;
    if (traced) {
      tracer.End(run_span);
    }
    // Run left the base clock at the largest cursor. detlint: base-clock
    machine->DrainAll(machine->clock().now());
    gate = result.ok ? CheckGate(*machine, result)
                     : std::string("run failed: ") + FsStatusName(result.error);
  }
  for (size_t dev = 0; dev < recorders.size(); ++dev) {
    machine->scheduler(dev).set_completion_observer(nullptr);
  }
  const Snapshot after = TakeSnapshot(*machine);
  const uint64_t digest = DigestRun(*machine, after, result, metrics);
  // A run that stopped on an error reports no ops, but the histogram holds
  // every op it completed; it attempted one more, the op that failed.
  const uint64_t ops = result.ok ? result.total_ops : metrics.histogram().total();
  const uint64_t attempted = ops + result.failed_ops + (result.ok ? 0 : 1);
  if (traced) {
    tracer.End(root);
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);

  std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"traced\": %s, "
              "\"gate\": \"%s\", \"digest\": \"%016" PRIx64 "\", \"ops\": %" PRIu64
              ", \"failed_ops\": %" PRIu64 ", \"attempted\": %" PRIu64
              ", \"run_s\": %.9f, \"setup_s\": %.9f, \"peak_rss_kib\": %ld, \"layers\": ",
              name.c_str(), seed, traced ? "true" : "false", JsonEscape(gate).c_str(), digest,
              ops, result.failed_ops, attempted, run_s, setup_s,
              usage.ru_maxrss);
  PrintFields(LayerMetrics(*machine, before, after, result, metrics));
  std::printf(", \"mix\": ");
  PrintFields(ServiceMix(before, after));
  if (traced) {
    std::printf(", \"host\": ");
    PrintFields({{"setup.machine_s", static_cast<double>(tracer.Total("machine")) / 1e9},
                 {"setup.files_s", static_cast<double>(tracer.Total("setup")) / 1e9},
                 {"setup.prewarm_s", static_cast<double>(tracer.Total("prewarm")) / 1e9},
                 {"device.access_ns", ReplayAccessNs(*machine, seed, recorders)}});
    PrintTrace(tracer);
  }
  std::printf("}\n");
  return 0;
}

}  // namespace
}  // namespace fsbench

int main(int argc, char** argv) { return fsbench::Main(argc, argv); }
