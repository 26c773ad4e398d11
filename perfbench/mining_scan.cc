/**
 * @file
 * mining_scan: the Figure 9 NASD PFS configuration. Eight prototype
 * drives behind a Cheops manager, the 300 MB sales dataset loaded
 * through PFS and flushed, then eight OC-3 clients run the frequent
 * 1-itemset scan closed-loop: each 2 MB chunk arrives as four parallel
 * 512 KB PfsClient::read calls and is then counted. The cluster is
 * assembled exactly as bench/fig9_mining.cc assembles its 8-drive NASD
 * point, so pass 0 reproduces that figure's bandwidth.
 */
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "apps/frequent_sets.h"
#include "apps/transactions.h"
#include "cheops/cheops.h"
#include "net/presets.h"
#include "pfs/pfs.h"
#include "perfbench/workloads.h"
#include "sim/sync.h"
#include "util/units.h"

using namespace nasd;

namespace perfbench {
namespace {

constexpr int kDrives = 8;
constexpr std::uint64_t kDatasetBytes = kScanDatasetBytes;
constexpr std::uint64_t kReadBytes = 512 * util::kKB;
constexpr std::uint32_t kCatalogItems = kScanCatalogItems;
constexpr std::uint64_t kChunks = kDatasetBytes / apps::kChunkBytes;

struct ScanStats
{
    std::vector<double> read_ms;
    std::uint64_t reads = 0;
    std::uint64_t failed = 0;
};

/** One 512 KB producer read, as an async "pfs.read" span. */
sim::Task<void>
timedRead(sim::Simulator &sim, Tracer &tracer, pfs::PfsClient &client,
          pfs::PfsHandle handle, std::uint64_t offset,
          std::span<std::uint8_t> out, std::uint32_t parent,
          std::uint64_t request, ScanStats &stats)
{
    const sim::Tick t0 = sim.now();
    const auto span = tracer.beginAsync("pfs.read", parent, request, t0);
    auto r = co_await client.read(handle, offset, out);
    tracer.endAsync(span, sim.now());
    ++stats.reads;
    stats.read_ms.push_back(sim::toMillis(sim.now() - t0));
    if (!r.ok() || r.value() != out.size())
        ++stats.failed;
}

/** One mining client: chunks first, first+stride, ... of the file. */
sim::Task<void>
mineChunks(sim::Simulator &sim, Tracer &tracer, pfs::PfsClient &client,
           pfs::PfsHandle handle, std::uint64_t first_chunk,
           std::uint64_t stride, std::uint32_t parent,
           apps::ItemCounts &result, ScanStats &stats)
{
    std::vector<std::uint8_t> chunk(apps::kChunkBytes);
    for (std::uint64_t c = first_chunk; c < kChunks; c += stride) {
        const std::uint64_t request = tracer.newRequest();
        std::vector<sim::Task<void>> producers;
        for (std::uint64_t off = 0; off < apps::kChunkBytes;
             off += kReadBytes) {
            producers.push_back(timedRead(
                sim, tracer, client, handle, c * apps::kChunkBytes + off,
                std::span<std::uint8_t>(chunk.data() + off, kReadBytes),
                parent, request, stats));
        }
        co_await sim::parallelAll(sim, std::move(producers));

        // The counting kernel: modelled client CPU, then the real count.
        co_await client.node().cpu().executeAt(
            static_cast<std::uint64_t>(apps::kCountingCyclesPerByte *
                                       apps::kChunkBytes),
            1.0);
        ScopedSpan span(tracer, "apps.count", sim.now(), request);
        apps::mergeCounts(result,
                          apps::countOneItemsets(chunk, kCatalogItems));
        span.setSimEnd(sim.now());
    }
}

class MiningScan : public Workload
{
  public:
    void prepare(std::uint64_t seed) override { scanReference(seed); }

    void
    setup(Tracer &tracer, std::uint64_t seed) override
    {
        reference_ = &scanReference(seed);
        for (int i = 0; i < kDrives; ++i) {
            drives_.push_back(std::make_unique<NasdDrive>(
                sim_, net_,
                prototypeDriveConfig("nasd" + std::to_string(i), i + 1)));
            raw_.push_back(drives_.back().get());
        }
        auto &mgr_node = net_.addNode("mgr", net::alphaStation500(),
                                      net::oc3Link(), net::dceRpcCosts());
        storage_ = std::make_unique<cheops::CheopsManager>(
            sim_, net_, mgr_node, raw_, 0);
        runTask(tracer, sim_, storage_->initialize(1024 * util::kMB));
        manager_ = std::make_unique<pfs::PfsManager>(*storage_);

        auto &loader_node = net_.addNode("loader", net::alphaStation255(),
                                         net::oc3Link(), net::dceRpcCosts());
        pfs::PfsClient loader(net_, loader_node, *manager_, raw_);
        handle_ = runFor(tracer, sim_, loader.open("sales", true, true))
                      .value();
        apps::DatasetParams params;
        params.catalog_items = kCatalogItems;
        params.seed = seed;
        const apps::TransactionGenerator gen(params);
        for (std::uint64_t c = 0; c < kChunks; ++c) {
            std::vector<std::uint8_t> chunk;
            {
                ScopedSpan span(tracer, "apps.gen", sim_.now());
                chunk = gen.chunk(c);
            }
            runTask(tracer, sim_,
                    [](sim::Simulator &sim, Tracer &tr,
                       pfs::PfsClient &client, pfs::PfsHandle h,
                       std::uint64_t offset,
                       std::vector<std::uint8_t> data) -> sim::Task<void> {
                        const auto span = tr.beginAsync(
                            "pfs.write", tr.current(), tr.newRequest(),
                            sim.now());
                        auto w = co_await client.write(h, offset, data);
                        NASD_ASSERT(w.ok(), "mining_scan: load failed");
                        tr.endAsync(span, sim.now());
                    }(sim_, tracer, loader, handle_, c * apps::kChunkBytes,
                      std::move(chunk)));
        }
        for (auto *d : raw_)
            runTask(tracer, sim_, d->store().flushAll());

        for (int i = 0; i < kDrives; ++i) {
            auto &node = net_.addNode("client" + std::to_string(i),
                                      net::alphaStation255(),
                                      net::oc3Link(), net::dceRpcCosts());
            clients_.push_back(std::make_unique<pfs::PfsClient>(
                net_, node, *manager_, raw_));
            auto h = runFor(tracer, sim_,
                            clients_.back()->open("sales", false, false));
            NASD_ASSERT(h.ok(), "mining_scan: client open failed");
        }
    }

    PassResult
    pass(Tracer &tracer, int index) override
    {
        ScanStats stats;
        std::vector<apps::ItemCounts> partials(
            kDrives, apps::ItemCounts(kCatalogItems, 0));
        const sim::Tick start = sim_.now();
        const std::uint32_t parent = tracer.current();
        for (int i = 0; i < kDrives; ++i) {
            sim_.spawn(mineChunks(sim_, tracer, *clients_[i], handle_,
                                  static_cast<std::uint64_t>(i), kDrives,
                                  parent, partials[i], stats));
        }
        runSim(tracer, sim_);
        const double secs = sim::toSeconds(sim_.lastEventTime() - start);

        apps::ItemCounts merged(kCatalogItems, 0);
        for (const auto &p : partials)
            apps::mergeCounts(merged, p);

        PassResult r;
        r.sim_s = secs;
        r.user_bytes = kDatasetBytes;
        r.client_ops = stats.reads;
        r.failed_ops = stats.failed;
        r.oracle_ok = merged == *reference_ && stats.failed == 0 &&
                      stats.reads == kDatasetBytes / kReadBytes;
        r.verdict = std::string("item counts ") +
                    (merged == *reference_ ? "match" : "DIFFER from") +
                    " the generator's for this seed; " +
                    std::to_string(stats.failed) + " of " +
                    std::to_string(stats.reads) + " reads failed";
        if (index == 0)
            pass0_mbps_ = util::bytesPerSecToMBs(
                static_cast<double>(kDatasetBytes) / secs);
        if (index < kModelledPasses)
            read_ms_.insert(read_ms_.end(), stats.read_ms.begin(),
                            stats.read_ms.end());
        return r;
    }

    std::map<std::string, double>
    modelled() const override
    {
        return {
            {"model_mbps", pass0_mbps_},
            {"pfs.read_p50_ms", percentile(read_ms_, 50)},
            {"pfs.read_p99_ms", percentile(read_ms_, 99)},
            {"pfs.read_samples", static_cast<double>(read_ms_.size())},
        };
    }

    sim::Simulator &simulator() override { return sim_; }
    Topology topology() const override { return {kDrives, "client", kDrives}; }

  private:
    util::MetricsScope scope_; // first: outlives every instrument below
    sim::Simulator sim_;
    net::Network net_{sim_};
    std::vector<std::unique_ptr<NasdDrive>> drives_;
    std::vector<NasdDrive *> raw_;
    std::unique_ptr<cheops::CheopsManager> storage_;
    std::unique_ptr<pfs::PfsManager> manager_;
    std::vector<std::unique_ptr<pfs::PfsClient>> clients_;
    pfs::PfsHandle handle_;
    const apps::ItemCounts *reference_ = nullptr;
    double pass0_mbps_ = 0;
    std::vector<double> read_ms_;
};

} // namespace

std::unique_ptr<Workload>
makeMiningScan()
{
    return std::make_unique<MiningScan>();
}

} // namespace perfbench
