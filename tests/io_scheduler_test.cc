#include "src/sim/io_scheduler.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/sim/clock.h"
#include "src/sim/disk_model.h"
#include "src/sim/ssd_model.h"

namespace fsbench {
namespace {

struct SchedulerFixture {
  DiskParams params;
  VirtualClock clock;
  DiskModel disk;
  IoScheduler scheduler;

  SchedulerFixture() : disk(params, 1), scheduler(&disk) {}

  std::optional<Nanos> Sync(uint64_t lba, uint32_t sectors = 8) {
    return scheduler.SubmitSync({IoKind::kRead, lba, sectors}, clock.now());
  }
  void Async(uint64_t lba, uint32_t sectors = 8, IoKind kind = IoKind::kRead) {
    scheduler.SubmitAsync({kind, lba, sectors}, clock.now());
  }
  Nanos Drain() { return scheduler.Drain(clock.now()); }
};

// Records the LBA of every request in the order the scheduler settles its
// outcome, which is its dispatch order (async services and sync submissions
// alike).
struct DispatchRecorder : public IoCompletionObserver {
  std::vector<uint64_t> lbas;
  void OnIoComplete(const IoRequest& req, Nanos, bool) override { lbas.push_back(req.lba); }
};

TEST(IoSchedulerTest, SyncCompletionIsInTheFuture) {
  SchedulerFixture f;
  const auto done = f.Sync(1000);
  ASSERT_TRUE(done.has_value());
  EXPECT_GT(*done, f.clock.now());
  EXPECT_EQ(f.scheduler.busy_until(), *done);
}

TEST(IoSchedulerTest, BackToBackSyncRequestsQueue) {
  SchedulerFixture f;
  const auto first = f.Sync(1000);
  ASSERT_TRUE(first.has_value());
  // Without advancing the clock, the second request waits for the first.
  const auto second = f.Sync(5'000'000);
  ASSERT_TRUE(second.has_value());
  EXPECT_GT(*second, *first);
}

TEST(IoSchedulerTest, SyncFromTrailingThreadQueuesBehindBusyDevice) {
  // Two simulated threads with independent cursors sharing the device: the
  // thread whose local time trails the other's completed I/O still pays the
  // busy-until queueing delay — the multi-thread contention mechanism.
  SchedulerFixture f;
  const auto first = f.scheduler.SubmitSync({IoKind::kRead, 1000, 8}, /*now=*/0);
  ASSERT_TRUE(first.has_value());
  const Nanos trailing_now = *first / 2;
  const auto second = f.scheduler.SubmitSync({IoKind::kRead, 200'000'000, 8}, trailing_now);
  ASSERT_TRUE(second.has_value());
  EXPECT_GT(*second, *first);
  // The second request's queue delay is at least the remaining busy window.
  EXPECT_GE(f.scheduler.stats().total_sync_queue_delay, *first - trailing_now);
}

TEST(IoSchedulerTest, AsyncDoesNotBlockButOccupiesDevice) {
  SchedulerFixture f;
  f.Async(1000);
  EXPECT_EQ(f.scheduler.pending_async(), 1u);
  // The async request is serviced before the sync one.
  const auto done = f.Sync(4000);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(f.scheduler.pending_async(), 0u);
  EXPECT_EQ(f.scheduler.stats().async_serviced, 1u);
  EXPECT_EQ(f.disk.stats().reads, 2u);
}

TEST(IoSchedulerTest, DrainServicesEverythingAndReturnsIdleTime) {
  SchedulerFixture f;
  for (int i = 0; i < 5; ++i) {
    f.Async(static_cast<uint64_t>(i) * 100000, 8, IoKind::kWrite);
  }
  const Nanos idle = f.Drain();
  EXPECT_EQ(f.scheduler.pending_async(), 0u);
  EXPECT_GE(idle, f.clock.now());
  EXPECT_EQ(f.disk.stats().writes, 5u);
}

TEST(IoSchedulerTest, DrainIsIdempotentUnderInterleavedSubmissions) {
  SchedulerFixture f;
  f.Async(100'000, 8, IoKind::kWrite);
  f.Async(500'000, 8, IoKind::kWrite);
  const Nanos first = f.Drain();
  const uint64_t writes_after_first = f.disk.stats().writes;
  // A second drain with nothing pending must not touch the device and must
  // report the same idle time.
  const Nanos second = f.Drain();
  EXPECT_EQ(second, first);
  EXPECT_EQ(f.disk.stats().writes, writes_after_first);
  // Interleave more submissions; drain services exactly those.
  f.Async(200'000, 8, IoKind::kWrite);
  const Nanos third = f.Drain();
  EXPECT_GT(third, first);
  EXPECT_EQ(f.disk.stats().writes, writes_after_first + 1);
  EXPECT_EQ(f.Drain(), third);
}

TEST(IoSchedulerTest, ElevatorServicesPendingInLbaOrder) {
  // Descending submissions; the elevator should reorder ascending, which
  // yields strictly less total seek time than FIFO on the same pattern. The
  // FIFO baseline issues the same LBAs as sync requests, which are served
  // on arrival.
  SchedulerFixture elevator;
  SchedulerFixture fifo;
  const std::vector<uint64_t> lbas{400'000'000, 100'000'000, 300'000'000, 200'000'000,
                                   350'000'000};
  for (uint64_t lba : lbas) {
    elevator.Async(lba);
    ASSERT_TRUE(fifo.Sync(lba).has_value());
  }
  elevator.Drain();
  EXPECT_LT(elevator.disk.stats().total_seek_time, fifo.disk.stats().total_seek_time);
}

TEST(IoSchedulerTest, ElevatorSweepsAscendingFromHeadThenWraps) {
  // C-SCAN across the wrap-around: after a sync request parks the head at a
  // middle LBA, queued requests ahead of the head are serviced in ascending
  // order first, then the sweep wraps to the lowest queued LBA.
  SchedulerFixture f;
  DispatchRecorder recorder;
  f.scheduler.set_completion_observer(&recorder);
  ASSERT_TRUE(f.Sync(500'000).has_value());  // head now just past 500'000
  f.Async(100);
  f.Async(600'000);
  f.Async(300'000);
  f.Async(900'000);
  f.Async(200);
  f.Drain();
  const std::vector<uint64_t> expected{500'000, 600'000, 900'000, 100, 200, 300'000};
  EXPECT_EQ(recorder.lbas, expected);
}

TEST(IoSchedulerTest, FifoServicesInSubmissionOrder) {
  // The device kind picks the order, not the channel count: flash has no
  // head to spare a seek, so even a one-channel SSD keeps submission order.
  SsdParams params;
  params.channels = 1;
  SsdModel ssd(params);
  IoScheduler scheduler(&ssd);
  DispatchRecorder recorder;
  scheduler.set_completion_observer(&recorder);
  const std::vector<uint64_t> expected{900'000, 100, 500'000};
  for (uint64_t lba : expected) {
    scheduler.SubmitAsync({IoKind::kRead, lba, 8}, /*now=*/0);
  }
  scheduler.Drain(/*now=*/0);
  EXPECT_EQ(recorder.lbas, expected);
}

TEST(IoSchedulerTest, AsyncServiceNeverStartsBeforeSubmission) {
  // Causality across thread cursors: an async request submitted by a thread
  // at t=100ms cannot occupy the device earlier just because a trailing
  // thread (cursor at t=0) triggers the service pass.
  SchedulerFixture f;
  const Nanos ahead = FromMillis(100.0);
  f.scheduler.SubmitAsync({IoKind::kWrite, 100'000, 8}, /*now=*/ahead);
  const auto done = f.scheduler.SubmitSync({IoKind::kRead, 900'000, 8}, /*now=*/0);
  ASSERT_TRUE(done.has_value());
  // The sync request queued behind an async service that started >= 100ms.
  EXPECT_GT(*done, ahead);
  EXPECT_GE(f.scheduler.stats().total_sync_queue_delay, ahead);
}

TEST(IoSchedulerTest, SyncWaitAccountsQueueingDelay) {
  SchedulerFixture f;
  f.Async(100'000'000);
  f.Async(300'000'000);
  const auto done = f.Sync(200'000'000);
  ASSERT_TRUE(done.has_value());
  EXPECT_GT(f.scheduler.stats().total_sync_wait, 0);
  // The sync request waited out both async services: pure queueing delay is
  // positive and strictly less than wait (which adds its own service).
  EXPECT_GT(f.scheduler.stats().total_sync_queue_delay, 0);
  EXPECT_LT(f.scheduler.stats().total_sync_queue_delay, f.scheduler.stats().total_sync_wait);
  EXPECT_EQ(f.scheduler.stats().sync_requests, 1u);
  EXPECT_EQ(f.scheduler.stats().async_requests, 2u);
}

TEST(IoSchedulerTest, ClockAdvanceReleasesTheDevice) {
  SchedulerFixture f;
  const auto first = f.Sync(1000);
  ASSERT_TRUE(first.has_value());
  f.clock.AdvanceTo(*first + kSecond);
  const auto second = f.Sync(1008);
  ASSERT_TRUE(second.has_value());
  // The device was idle: completion is relative to now, not to busy_until.
  EXPECT_LT(*second - f.clock.now(), FromMillis(20.0));
}

TEST(IoSchedulerTest, InjectedErrorPropagatesFromSync) {
  SchedulerFixture f;
  f.disk.InjectError(1000);
  EXPECT_FALSE(f.Sync(1000).has_value());
}

TEST(IoSchedulerTest, AsyncErrorsAreCountedNotFatal) {
  SchedulerFixture f;
  f.disk.InjectError(1000);
  f.Async(1000);
  f.Async(5000);
  f.Drain();
  EXPECT_EQ(f.scheduler.stats().async_errors, 1u);
  EXPECT_EQ(f.scheduler.stats().async_serviced, 2u);
}

TEST(IoSchedulerTest, MaxQueueDepthTracked) {
  SchedulerFixture f;
  for (int i = 0; i < 7; ++i) {
    f.Async(static_cast<uint64_t>(i) * 1000);
  }
  EXPECT_EQ(f.scheduler.stats().max_queue_depth, 7u);
}

TEST(IoSchedulerTest, MaxQueueDepthCountsSyncAndInflightRequests) {
  // Regression: the old accounting only tracked the async backlog, so a
  // sync request arriving behind queued async — or behind still-in-flight
  // requests — understated the device's real queue.
  SchedulerFixture f;
  f.Async(100'000'000);
  f.Async(300'000'000);
  // Depth at this instant: 2 queued async + the arriving sync = 3.
  ASSERT_TRUE(f.Sync(200'000'000).has_value());
  EXPECT_EQ(f.scheduler.stats().max_queue_depth, 3u);
  // Without advancing the clock all three are still in flight, so a second
  // sync observes depth 4.
  ASSERT_TRUE(f.Sync(250'000'000).has_value());
  EXPECT_EQ(f.scheduler.stats().max_queue_depth, 4u);
  EXPECT_EQ(f.scheduler.inflight(), 4u);
  // Once the clock passes busy_until the queue empties: a fresh sync
  // observes only itself.
  f.clock.AdvanceTo(f.scheduler.busy_until());
  ASSERT_TRUE(f.Sync(260'000'000).has_value());
  EXPECT_EQ(f.scheduler.inflight(), 1u);
  EXPECT_EQ(f.scheduler.stats().max_queue_depth, 4u);
}

}  // namespace
}  // namespace fsbench
