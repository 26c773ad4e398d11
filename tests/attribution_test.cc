/**
 * @file
 * Tests for per-request latency attribution and the sampling/analysis
 * layers built on it: sim::timedAcquire wait measurement, CpuResource
 * and DiskModel wait/service decomposition (the per-op sum must
 * reconcile with measured elapsed time), OpAttribution fan-out
 * normalization, StatsPoller interval sampling, lastEventTime clock
 * semantics, and the critical-path fan-out analyzer.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "disk/disk_model.h"
#include "disk/params.h"
#include "sim/resource.h"
#include "sim/simulator.h"
#include "sim/stats_poller.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "util/attribution.h"
#include "util/critpath.h"
#include "util/metrics.h"
#include "util/timeseries.h"
#include "util/trace.h"

namespace nasd {
namespace {

constexpr std::size_t kCpu =
    static_cast<std::size_t>(util::ResourceClass::kCpu);
constexpr std::size_t kDiskBus =
    static_cast<std::size_t>(util::ResourceClass::kDiskBus);
constexpr std::size_t kDiskMech =
    static_cast<std::size_t>(util::ResourceClass::kDiskMech);
constexpr std::size_t kNetTx =
    static_cast<std::size_t>(util::ResourceClass::kNetTx);

TEST(TimedAcquire, ReturnsQueueDelay)
{
    sim::Simulator sim;
    sim::Semaphore sem(sim, 1);
    sim::Tick first_wait = 99999;
    sim::Tick second_wait = 99999;
    sim.spawn([](sim::Simulator &s, sim::Semaphore &sm,
                 sim::Tick &out) -> sim::Task<void> {
        out = co_await sim::timedAcquire(s, sm);
        co_await s.delay(250);
        sm.release();
    }(sim, sem, first_wait));
    sim.spawn([](sim::Simulator &s, sim::Semaphore &sm,
                 sim::Tick &out) -> sim::Task<void> {
        out = co_await sim::timedAcquire(s, sm);
        sm.release();
    }(sim, sem, second_wait));
    sim.run();
    EXPECT_EQ(first_wait, 0u);
    EXPECT_EQ(second_wait, 250u); // queued behind the 250 ns holder
}

TEST(Attribution, CpuChargesWaitAndServiceUnderContention)
{
    const util::MetricsScope scope;
    sim::Simulator sim;
    // 200 MHz, CPI 1: 1000 instructions = 5000 ns of service.
    sim::CpuResource cpu(sim, "cpu0", 200.0, 1.0);
    util::OpAttribution first;
    util::OpAttribution second;
    for (util::OpAttribution *attr : {&first, &second}) {
        sim.spawn([](sim::CpuResource &c,
                     util::OpAttribution *a) -> sim::Task<void> {
            co_await c.execute(1000, a);
        }(cpu, attr));
    }
    sim.run();
    EXPECT_EQ(first.wait_ns[kCpu], 0u);
    EXPECT_EQ(first.service_ns[kCpu], 5000u);
    EXPECT_EQ(second.wait_ns[kCpu], 5000u); // queued behind the first op
    EXPECT_EQ(second.service_ns[kCpu], 5000u);
    EXPECT_EQ(second.totalNs(), 10000u);
}

TEST(Attribution, DiskReadReconcilesWithElapsed)
{
    const util::MetricsScope scope;
    sim::Simulator sim;
    disk::DiskModel d(sim, disk::medallistParams());
    util::OpAttribution attr;
    sim::Tick elapsed = 0;
    runTask(sim, [](sim::Simulator &s, disk::DiskModel &dm,
                    util::OpAttribution &a,
                    sim::Tick &out) -> sim::Task<void> {
        std::vector<std::uint8_t> buf(dm.blockSize() * 8u);
        const sim::Tick start = s.now();
        co_await dm.read(0, 8, buf, &a);
        out = s.now() - start;
    }(sim, d, attr, elapsed));
    ASSERT_GT(elapsed, 0u);
    // Every nanosecond of the op classified as wait or service for
    // exactly one resource class: attributed == measured, no slack.
    EXPECT_EQ(attr.totalNs(), elapsed);
    EXPECT_GT(attr.service_ns[kDiskMech], 0u); // cold read hits media
    EXPECT_GT(attr.service_ns[kDiskBus], 0u);  // ... and crosses the bus
    EXPECT_EQ(attr.wait_ns[kCpu] + attr.service_ns[kCpu], 0u);
}

TEST(Attribution, ScaleToTotalNormalizesFanoutMerge)
{
    // Two parallel branches of 1000 ns of work each, but the op only
    // waited 1200 ns for the critical branch: the merged profile is
    // scaled down to the measured elapsed, proportions intact.
    util::OpAttribution merged;
    util::OpAttribution mech_branch;
    mech_branch.addWait(util::ResourceClass::kDiskMech, 300);
    mech_branch.addService(util::ResourceClass::kDiskMech, 700);
    merged.merge(mech_branch);
    util::OpAttribution net_branch;
    net_branch.addService(util::ResourceClass::kNetTx, 1000);
    merged.merge(net_branch);
    EXPECT_EQ(merged.totalNs(), 2000u);

    merged.scaleToTotal(1200); // scale = 0.6, exact per class
    EXPECT_EQ(merged.totalNs(), 1200u);
    EXPECT_EQ(merged.wait_ns[kDiskMech], 180u);
    EXPECT_EQ(merged.service_ns[kDiskMech], 420u);
    EXPECT_EQ(merged.service_ns[kNetTx], 600u);
}

TEST(Attribution, ScaleToTotalParksRoundingOnLargestService)
{
    util::OpAttribution a;
    a.addService(util::ResourceClass::kCpu, 3);
    a.addService(util::ResourceClass::kNetTx, 7);
    a.scaleToTotal(5); // 3*0.5 and 7*0.5 both truncate
    EXPECT_EQ(a.totalNs(), 5u);
    EXPECT_EQ(a.service_ns[kCpu], 1u);
    EXPECT_EQ(a.service_ns[kNetTx], 4u); // 3 + the rounding slack
}

TEST(StatsPoller, SamplesRatesAndGaugesAtFixedIntervals)
{
    sim::Simulator sim;
    std::uint64_t bytes = 0;
    sim.spawn([](sim::Simulator &s,
                 std::uint64_t &b) -> sim::Task<void> {
        for (int i = 0; i < 3; ++i) {
            co_await s.delay(250);
            b += 100;
        }
    }(sim, bytes));

    util::TimeSeries ts(500);
    sim::StatsPoller poller(sim, ts, 500);
    // Scale 1e-9 turns the per-second rate into bytes per ns, i.e.
    // delta / interval_ns — easy exact expectations.
    poller.addRate("bytes_per_ns",
                   [&bytes] { return static_cast<double>(bytes); }, 1e-9);
    poller.addGauge("bytes_total",
                    [&bytes] { return static_cast<double>(bytes); });
    poller.run();

    // Events at 250/500/750 ns, 500 ns interval: boundaries at 500 and
    // 1000, each emitting one sample per probe.
    EXPECT_EQ(ts.sampleCount(), 2u);
    EXPECT_EQ(ts.startNs(), 0u);
    ASSERT_EQ(ts.seriesCount(), 2u);
    EXPECT_DOUBLE_EQ(ts.values(0)[0], 200.0 / 500.0);
    EXPECT_DOUBLE_EQ(ts.values(0)[1], 100.0 / 500.0);
    EXPECT_DOUBLE_EQ(ts.values(1)[0], 200.0);
    EXPECT_DOUBLE_EQ(ts.values(1)[1], 300.0);

    // The poller rounds the clock up to the interval boundary, but the
    // last *event* time is what a plain run() would have reported.
    EXPECT_EQ(sim.now(), 1000u);
    EXPECT_EQ(sim.lastEventTime(), 750u);
}

TEST(Critpath, FindsDominantDriveLaneAndSlack)
{
    util::Tracer t;
    // Two striped reads, each fanning out to two drives; nasd1 is the
    // slow chain both times.
    for (int op = 0; op < 2; ++op) {
        const util::TraceContext root = t.newRoot();
        const std::uint64_t base = static_cast<std::uint64_t>(op) * 1000;
        const std::size_t r = t.beginSpan("pfs/read", "client0", base, root);
        const std::size_t fast = t.beginSpan(
            "drive/read", "nasd0", base, t.childOf(root), root.span_id);
        t.endSpan(fast, base + 100);
        const std::size_t slow = t.beginSpan(
            "drive/read", "nasd1", base, t.childOf(root), root.span_id);
        t.endSpan(slow, base + 300);
        t.endSpan(r, base + 320);
    }

    const util::FanoutReport report =
        util::analyzeDriveFanout(t, "pfs/read", "drive/");
    EXPECT_EQ(report.roots, 2u);
    EXPECT_EQ(report.dominantLane(), "nasd1");
    ASSERT_EQ(report.drives.size(), 2u);
    EXPECT_EQ(report.drives[0].lane, "nasd1");
    EXPECT_EQ(report.drives[0].critical, 2u);
    EXPECT_DOUBLE_EQ(report.drives[0].mean_dur_ns, 300.0);
    EXPECT_EQ(report.drives[1].lane, "nasd0");
    EXPECT_EQ(report.drives[1].critical, 0u);
    EXPECT_DOUBLE_EQ(report.drives[1].mean_slack_ns, 200.0);

    // Spans outside the fan-out prefix are ignored entirely.
    const util::FanoutReport none =
        util::analyzeDriveFanout(t, "pfs/write", "drive/");
    EXPECT_EQ(none.roots, 0u);
    EXPECT_EQ(none.dominantLane(), "");
}

TEST(Simulator, RunUntilTracksLastEventSeparatelyFromClock)
{
    sim::Simulator sim;
    sim.scheduleIn(70, [] {});
    const bool more = sim.runUntil(100);
    EXPECT_FALSE(more);
    EXPECT_EQ(sim.now(), 100u);        // clock rounds up to the deadline
    EXPECT_EQ(sim.lastEventTime(), 70u); // real work ended here
}

} // namespace
} // namespace nasd
