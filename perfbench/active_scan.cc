/**
 * @file
 * active_scan: the Section 6 configuration. Eight prototype drives on
 * 10 Mb/s Ethernet, drive i holding chunks i, i+8, ... of the 300 MB
 * sales dataset as one object, and a controller that asks every drive
 * to run the frequent-sets method over its object with
 * ActiveDiskClient::scan. Only the count tables cross the network. The
 * cluster is assembled exactly as bench/active_disks.cc assembles its
 * on-drive configuration.
 */
#include <memory>
#include <string>
#include <vector>

#include "active/active.h"
#include "apps/frequent_sets.h"
#include "apps/transactions.h"
#include "net/presets.h"
#include "perfbench/workloads.h"
#include "util/logging.h"
#include "util/units.h"

using namespace nasd;

namespace perfbench {
namespace {

constexpr int kDrives = 8;
constexpr std::uint64_t kDatasetBytes = kScanDatasetBytes;
constexpr std::uint32_t kCatalogItems = kScanCatalogItems;

struct ScanOutcome
{
    apps::ItemCounts counts;
    std::uint64_t result_bytes = 0;
    double latency_ms = 0;
    bool ok = false;
};

class ActiveScan : public Workload
{
  public:
    void prepare(std::uint64_t seed) override { scanReference(seed); }

    void
    setup(Tracer &tracer, std::uint64_t seed) override
    {
        reference_ = &scanReference(seed);
        for (int i = 0; i < kDrives; ++i) {
            auto cfg = prototypeDriveConfig("nasd" + std::to_string(i),
                                            i + 1);
            cfg.link = net::tenMbitEthernetLink();
            drives_.push_back(
                std::make_unique<NasdDrive>(sim_, net_, std::move(cfg)));
            issuers_.push_back(std::make_unique<CapabilityIssuer>(
                drives_.back()->config().master_key, i + 1));
            runtimes_.push_back(std::make_unique<active::ActiveDiskRuntime>(
                *drives_.back()));
            runtimes_.back()->installMethod("frequent-sets", [] {
                return std::make_unique<active::FrequentSetsMethod>(
                    kCatalogItems);
            });
        }
        controller_ = &net_.addNode("controller", net::alphaStation255(),
                                    net::tenMbitEthernetLink(),
                                    net::dceRpcCosts());

        apps::DatasetParams params;
        params.catalog_items = kCatalogItems;
        params.seed = seed;
        const apps::TransactionGenerator gen(params);
        const std::uint64_t chunks = kDatasetBytes / apps::kChunkBytes;
        for (int i = 0; i < kDrives; ++i) {
            runTask(tracer, sim_, drives_[i]->format());
            auto part = drives_[i]->store().createPartition(0, 512 * util::kMB);
            (void)part;
            NasdClient loader(net_, *controller_, *drives_[i]);
            CapabilityPublic pc;
            pc.partition = 0;
            pc.object_id = kPartitionControlObject;
            pc.rights = kRightCreate;
            CredentialFactory pcred(issuers_[i]->mint(pc));
            const ObjectId oid =
                runFor(tracer, sim_, loader.create(pcred, 0)).value();
            objects_.push_back(oid);
            CredentialFactory cred(objectCap(i, oid));
            std::uint64_t local_offset = 0;
            for (std::uint64_t c = i; c < chunks;
                 c += static_cast<std::uint64_t>(kDrives)) {
                std::vector<std::uint8_t> chunk;
                {
                    ScopedSpan span(tracer, "apps.gen", sim_.now());
                    chunk = gen.chunk(c);
                }
                auto w = runFor(tracer, sim_,
                                loader.write(cred, local_offset, chunk));
                NASD_ASSERT(w.ok(), "active_scan: load failed");
                local_offset += apps::kChunkBytes;
            }
            runTask(tracer, sim_, drives_[i]->store().flushAll());
        }
    }

    PassResult
    pass(Tracer &tracer, int index) override
    {
        std::uint64_t scanned_before = 0;
        for (const auto &rt : runtimes_)
            scanned_before += rt->bytesScanned();
        std::vector<ScanOutcome> outcomes(kDrives);
        const sim::Tick start = sim_.now();
        const std::uint32_t parent = tracer.current();
        for (int i = 0; i < kDrives; ++i) {
            sim_.spawn([](ActiveScan &self, Tracer &tr, int drive,
                          std::uint32_t parent_span,
                          ScanOutcome &out) -> sim::Task<void> {
                active::ActiveDiskClient client(self.net_, *self.controller_,
                                                *self.runtimes_[drive]);
                CredentialFactory cred(
                    self.objectCap(drive, self.objects_[drive]));
                const sim::Tick t0 = self.sim_.now();
                const auto span = tr.beginAsync("active.scan", parent_span,
                                                tr.newRequest(), t0);
                auto result = co_await client.scan(cred, "frequent-sets");
                tr.endAsync(span, self.sim_.now());
                out.latency_ms = sim::toMillis(self.sim_.now() - t0);
                if (result.ok()) {
                    out.ok = true;
                    out.result_bytes = result.value().size();
                    out.counts = active::FrequentSetsMethod::decodeResult(
                        result.value());
                }
            }(*this, tracer, i, parent, outcomes[i]));
        }
        runSim(tracer, sim_);
        const double secs = sim::toSeconds(sim_.now() - start);

        apps::ItemCounts merged(kCatalogItems, 0);
        PassResult r;
        for (const auto &o : outcomes) {
            if (!o.ok)
                ++r.failed_ops;
            else
                apps::mergeCounts(merged, o.counts);
        }
        std::uint64_t scanned = 0;
        for (const auto &rt : runtimes_)
            scanned += rt->bytesScanned();
        scanned -= scanned_before;

        r.sim_s = secs;
        r.user_bytes = kDatasetBytes;
        r.client_ops = kDrives;
        r.oracle_ok = merged == *reference_ && r.failed_ops == 0 &&
                      scanned == kDatasetBytes;
        r.verdict = std::string("item counts ") +
                    (merged == *reference_ ? "match" : "DIFFER from") +
                    " the generator's for this seed; " +
                    std::to_string(r.failed_ops) + " of " +
                    std::to_string(kDrives) + " scans failed; " +
                    std::to_string(scanned) + " bytes scanned on-drive";
        if (index == 0) {
            pass0_mbps_ = util::bytesPerSecToMBs(
                static_cast<double>(kDatasetBytes) / secs);
        }
        if (index < kModelledPasses) {
            bytes_scanned_ += scanned;
            for (const auto &o : outcomes) {
                result_bytes_ += o.result_bytes;
                scan_ms_.push_back(o.latency_ms);
            }
        }
        return r;
    }

    std::map<std::string, double>
    modelled() const override
    {
        return {
            {"model_mbps", pass0_mbps_},
            {"active.bytes_scanned", static_cast<double>(bytes_scanned_)},
            {"active.result_bytes", static_cast<double>(result_bytes_)},
            {"active.scan_p50_ms", percentile(scan_ms_, 50)},
            {"active.scan_samples", static_cast<double>(scan_ms_.size())},
        };
    }

    sim::Simulator &simulator() override { return sim_; }
    Topology topology() const override { return {kDrives, "controller", 1}; }

  private:
    Capability
    objectCap(int drive, ObjectId oid)
    {
        CapabilityPublic pub;
        pub.partition = 0;
        pub.object_id = oid;
        pub.rights = kRightRead | kRightWrite | kRightGetAttr;
        return issuers_[drive]->mint(pub);
    }

    util::MetricsScope scope_; // first: outlives every instrument below
    sim::Simulator sim_;
    net::Network net_{sim_};
    std::vector<std::unique_ptr<NasdDrive>> drives_;
    std::vector<std::unique_ptr<CapabilityIssuer>> issuers_;
    std::vector<std::unique_ptr<active::ActiveDiskRuntime>> runtimes_;
    net::NetNode *controller_ = nullptr;
    std::vector<ObjectId> objects_;
    const apps::ItemCounts *reference_ = nullptr;
    double pass0_mbps_ = 0;
    std::uint64_t bytes_scanned_ = 0;
    std::uint64_t result_bytes_ = 0;
    std::vector<double> scan_ms_;
};

} // namespace

std::unique_ptr<Workload>
makeActiveScan()
{
    return std::make_unique<ActiveScan>();
}

} // namespace perfbench
