/**
 * @file
 * Section 6: Active Disks running the frequent-sets kernel on-drive.
 *
 * The sales data is distributed across the drives; instead of shipping
 * 300 MB to client nodes, the counting kernel executes inside each
 * drive and only count tables cross the network. The paper reports the
 * same 45 MB/s effective scan bandwidth as the NASD PFS configuration
 * while using 10 Mb/s Ethernet and a third of the hardware.
 *
 * This bench runs both configurations on the same slow network: the
 * on-drive scan, and the ship-to-client alternative, and reports
 * effective bandwidth and bytes moved.
 */
#include <cstdio>
#include <memory>
#include <vector>

#include "active/active.h"
#include "apps/frequent_sets.h"
#include "apps/transactions.h"
#include "bench/bench_util.h"
#include "net/presets.h"
#include "sim/simulator.h"
#include "util/units.h"

using namespace nasd;
using util::kKB;
using util::kMB;

namespace {

constexpr int kDrives = 8;
constexpr std::uint64_t kDatasetBytes = 300 * kMB;
constexpr std::uint32_t kCatalogItems = 500;

struct Setup
{
    sim::Simulator sim;
    net::Network net{sim};
    DriveArray drives{sim, net, kDrives, [](DriveConfig &cfg) {
                          cfg.link = net::tenMbitEthernetLink();
                      }};
    std::vector<std::unique_ptr<CapabilityIssuer>> issuers;
    std::vector<std::unique_ptr<active::ActiveDiskRuntime>> runtimes;
    net::NetNode *controller = nullptr;
    std::vector<ObjectId> objects;

    Setup()
    {
        for (int i = 0; i < kDrives; ++i) {
            issuers.push_back(std::make_unique<CapabilityIssuer>(
                drives[i]->config().master_key, i + 1));
            runtimes.push_back(
                std::make_unique<active::ActiveDiskRuntime>(*drives[i]));
            runtimes.back()->installMethod("frequent-sets", [] {
                return std::make_unique<active::FrequentSetsMethod>(
                    kCatalogItems);
            });
        }
        controller = &net.addNode("controller", net::alphaStation255(),
                                  net::tenMbitEthernetLink(),
                                  net::dceRpcCosts());

        // Distribute the dataset: drive i holds chunks i, i+8, ...
        apps::DatasetParams params;
        params.catalog_items = kCatalogItems;
        apps::TransactionGenerator gen(params);
        const std::uint64_t chunks = kDatasetBytes / apps::kChunkBytes;
        for (int i = 0; i < kDrives; ++i) {
            runTask(sim, drives[i]->format());
            auto part = drives[i]->store().createPartition(0, 512 * kMB);
            (void)part;
            NasdClient loader(net, *controller, *drives[i]);
            CapabilityPublic pc;
            pc.partition = 0;
            pc.object_id = kPartitionControlObject;
            pc.rights = kRightCreate;
            CredentialFactory pcred(issuers[i]->mint(pc));
            const ObjectId oid =
                runFor(sim, loader.create(pcred, 0)).value();
            objects.push_back(oid);
            CredentialFactory cred(objectCap(i, oid));
            std::uint64_t local_offset = 0;
            for (std::uint64_t c = i; c < chunks;
                 c += static_cast<std::uint64_t>(kDrives)) {
                auto w = runFor(
                    sim, loader.write(cred, local_offset, gen.chunk(c)));
                (void)w;
                local_offset += apps::kChunkBytes;
            }
            runTask(sim, drives[i]->store().flushAll());
        }
    }

    Capability
    objectCap(int drive, ObjectId oid)
    {
        CapabilityPublic pub;
        pub.partition = 0;
        pub.object_id = oid;
        pub.rights = kRightRead | kRightWrite | kRightGetAttr;
        return issuers[drive]->mint(pub);
    }
};

} // namespace

int
main(int argc, char **argv)
{
    bench::banner("active_disks — on-drive frequent-sets counting",
                  "Section 6 (Active Disks, 10 Mb/s Ethernet)");

    const bench::BenchOptions opts = bench::parseOptions("active_disks", argc, argv);

    // --- on-drive execution -------------------------------------------
    apps::ItemCounts active_counts(kCatalogItems, 0);
    double active_mbs = 0;
    std::uint64_t active_wire_bytes = 0;
    {
        Setup s;
        const auto wire_before = s.controller->bytes_received.value();
        const sim::Tick start = s.sim.now();
        std::vector<apps::ItemCounts> partials(
            kDrives, apps::ItemCounts(kCatalogItems, 0));
        for (int i = 0; i < kDrives; ++i) {
            s.sim.spawn([](Setup &setup, int drive,
                           apps::ItemCounts &out) -> sim::Task<void> {
                active::ActiveDiskClient client(setup.net,
                                                *setup.controller,
                                                *setup.runtimes[drive]);
                CredentialFactory cred(
                    setup.objectCap(drive, setup.objects[drive]));
                auto result =
                    co_await client.scan(cred, "frequent-sets");
                if (result.ok()) {
                    out = active::FrequentSetsMethod::decodeResult(
                        result.value());
                }
            }(s, i, partials[i]));
        }
        s.sim.run();
        const double secs = sim::toSeconds(s.sim.now() - start);
        active_mbs = util::bytesPerSecToMBs(
            static_cast<double>(kDatasetBytes) / secs);
        active_wire_bytes =
            s.controller->bytes_received.value() - wire_before;
        for (const auto &p : partials)
            apps::mergeCounts(active_counts, p);
    }

    // --- ship-to-client alternative ------------------------------------
    apps::ItemCounts remote_counts(kCatalogItems, 0);
    double remote_mbs = 0;
    {
        Setup s;
        const sim::Tick start = s.sim.now();
        std::vector<apps::ItemCounts> partials(
            kDrives, apps::ItemCounts(kCatalogItems, 0));
        for (int i = 0; i < kDrives; ++i) {
            s.sim.spawn([](Setup &setup, int drive,
                           apps::ItemCounts &out) -> sim::Task<void> {
                NasdClient client(setup.net, *setup.controller,
                                  *setup.drives[drive]);
                // All 8 drives' 2 MB replies share the controller's
                // 10 Mb/s link (~13 s per round), far past the default
                // 2 s per-attempt deadline.
                DriveRetryPolicy policy;
                policy.timeout = sim::sec(60);
                client.setPolicy(policy);
                CredentialFactory cred(
                    setup.objectCap(drive, setup.objects[drive]));
                std::uint64_t offset = 0;
                while (true) {
                    auto data = co_await client.read(cred, offset,
                                                     apps::kChunkBytes);
                    if (!data.ok() || data.value().empty())
                        break;
                    co_await setup.controller->cpu().executeAt(
                        static_cast<std::uint64_t>(
                            apps::kCountingCyclesPerByte *
                            static_cast<double>(data.value().size())),
                        1.0);
                    apps::mergeCounts(
                        out, apps::countOneItemsets(data.value(),
                                                    kCatalogItems));
                    offset += data.value().size();
                }
            }(s, i, partials[i]));
        }
        s.sim.run();
        const double secs = sim::toSeconds(s.sim.now() - start);
        remote_mbs = util::bytesPerSecToMBs(
            static_cast<double>(kDatasetBytes) / secs);
        for (const auto &p : partials)
            apps::mergeCounts(remote_counts, p);
    }

    std::printf("\n300MB scan over 10 Mb/s Ethernet, %d drives:\n\n",
                kDrives);
    std::printf("  %-28s %14s %16s\n", "configuration",
                "effective MB/s", "bytes to client");
    std::printf("  %-28s %14.1f %16s\n", "Active Disks (on-drive)",
                active_mbs,
                util::formatBytes(active_wire_bytes).c_str());
    std::printf("  %-28s %14.1f %16s\n", "ship data to client",
                remote_mbs, "300MB");
    const bool identical = active_counts == remote_counts;
    std::printf("\nitemset counts identical: %s\n",
                identical ? "yes" : "NO (BUG)");
    std::printf("\nPaper anchor: on-drive execution sustains ~45 MB/s of "
                "effective scan bandwidth over\n10 Mb/s Ethernet with a "
                "third of the hardware; shipping the data cannot exceed "
                "the\n~1.2 MB/s the wire allows.\n");
    bench::writeBenchJson(opts, "active_disks",
                          "Section 6 (Active Disks, 10 Mb/s Ethernet)");
    return identical ? 0 : 1;
}
